//! # The plltool service layer
//!
//! Every `plltool` subcommand is a [`crate::requests::Request`] value
//! executed by [`handle`] against a [`ServiceCtx`], producing a typed
//! [`Response`]. The CLI binary is a thin argv→`Request` parser over
//! this layer; [`serve_lines`] drives the same layer as a long-running
//! batched JSONL service; tests can call [`handle`] directly.
//!
//! Splitting request parsing, execution, and rendering means:
//!
//! * **one execution path** — the CLI, the server, and the `trace`/
//!   `profile` wrappers cannot drift apart;
//! * **stateless requests** — a handler is a pure function of its
//!   request; the only cross-request memory is `plltool serve`'s
//!   response cache, which answers a repeated spec with its stored
//!   envelope tail before any handler runs;
//! * **containable failure** — a handler returns `Result`, the server
//!   additionally catches panics, so one bad request degrades to a
//!   structured error response instead of taking the process down.
//!
//! One payload per command: a request variant holds the core spec it
//! runs (`Request::Explore` an `ExploreSpec`, `Request::Profile` a
//! `ProfileSpec`), and a response variant holds the core result it
//! stands for (`Margins`, `Vec<BodePoint>`, `Candidate`,
//! `ExploreReport`, `XcheckReport`, `ProfileReport`), not a copy.
//! Both renderers read that one value: [`Response::render_text`] is
//! the classic human CLI output, [`envelope`] is the versioned
//! `plltool/v1` JSON envelope shared by `--json` files and serve
//! response lines. `tests/cli_text.rs` pins the bytes of both for
//! every command.

pub mod json;

mod chaos;
mod handlers;
mod response;
mod server;

pub use chaos::{build_corpus, default_plan, run_chaos, ChaosOptions, ChaosReport};
pub use handlers::handle;
pub use response::{
    envelope, envelope_tail, AnalyzeOut, DoctorCheck, DoctorOut, ExploreOut, MetricsOut, Response,
    ServiceError, SpurOut, SweepOut, SweepRow, TransientOut,
};
#[cfg(unix)]
pub use server::serve_unix;
pub use server::{serve_lines, ServeOptions, ServeSummary};

use crate::par::{Deadline, WeakDeadline};
use std::sync::Mutex;
use std::time::Duration;

/// Shared state threaded through every request execution.
///
/// The context is `Send + Sync`: the serve dispatcher shares one
/// instance across all pool workers (and, on a socket, across all
/// connections).
pub struct ServiceCtx {
    /// Per-request wall-clock budget in milliseconds. `None` means
    /// unbounded; when set, [`ServiceCtx::begin_request`] arms a fresh
    /// [`Deadline`] for every request.
    pub deadline_ms: Option<u64>,
    /// Weak handles to the deadlines of requests currently executing.
    /// The serve watchdog walks this list to cancel in-flight work when
    /// the dispatcher stops making progress; entries expire on their
    /// own once a request finishes (the strong `Arc` is dropped).
    pub inflight: Mutex<Vec<WeakDeadline>>,
}

impl ServiceCtx {
    /// A fresh context with no deadline.
    pub fn new() -> Self {
        ServiceCtx::with_deadline_ms(None)
    }

    /// A fresh context that arms every request with a wall-clock budget.
    pub fn with_deadline_ms(deadline_ms: Option<u64>) -> Self {
        ServiceCtx {
            deadline_ms,
            inflight: Mutex::new(Vec::new()),
        }
    }

    /// Creates the deadline governing one request and registers a weak
    /// handle so an external watchdog can cancel it. Unbounded contexts
    /// hand out [`Deadline::none`], which has no shared state and is
    /// not registered.
    pub fn begin_request(&self) -> Deadline {
        let deadline = match self.deadline_ms {
            Some(ms) => Deadline::after(Duration::from_millis(ms)),
            None => Deadline::none(),
        };
        if let Some(weak) = deadline.downgrade() {
            if let Ok(mut inflight) = self.inflight.lock() {
                inflight.retain(WeakDeadline::is_alive);
                inflight.push(weak);
            }
        }
        deadline
    }
}

impl Default for ServiceCtx {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::requests::{Params, Request};

    fn req(command: &str, argv: &[&str]) -> Request {
        let params = Params::from_argv(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .expect("params parse");
        Request::parse(command, &params).expect("request parse")
    }

    #[test]
    fn handle_analyze_roundtrip() {
        let ctx = ServiceCtx::new();
        let resp = handle(&req("analyze", &["--ratio", "0.1"]), &ctx);
        match &resp {
            Response::Analyze(out) => {
                assert!(out.report.phase_margin_eff_deg < out.report.phase_margin_lti_deg);
            }
            other => panic!("expected analyze response, got {:?}", other.command()),
        }
        assert!(resp.failure().is_none());
    }

    #[test]
    fn handle_bad_design_is_structured_error() {
        let ctx = ServiceCtx::new();
        let resp = handle(&req("analyze", &["--ratio", "-3"]), &ctx);
        match &resp {
            Response::Error(e) => {
                assert_eq!(e.command, "analyze");
                assert_eq!(e.code, "failed");
            }
            other => panic!("expected error response, got {:?}", other.command()),
        }
        assert!(resp.failure().is_some());
    }

    #[test]
    fn stats_outside_serve_is_unsupported() {
        let ctx = ServiceCtx::new();
        let resp = handle(&Request::Stats, &ctx);
        match resp {
            Response::Error(e) => assert!(e.message.contains("serve")),
            _ => panic!("stats must not execute outside serve"),
        }
    }
}
