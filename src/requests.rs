//! Typed request layer shared by every `plltool` front end.
//!
//! The CLI (`src/bin/plltool.rs`), the `plltool serve` batch service,
//! and the `trace` wrapper all reduce their inputs to one [`Request`]
//! value and hand it to [`crate::service::handle`]. The CLI parses
//! `--key value` argv pairs and the server parses JSON-lines objects,
//! but both go through the same [`Params`] lookup code and the same
//! per-command extraction in [`Request::parse`], so a flag and its JSON
//! field can never drift apart.

use crate::obs::JsonValue;
use crate::par::{ThreadBudget, MAX_THREADS};
use crate::profile::ProfileSpec;
use htmpll_core::{CoreError, ExploreSpec, PllDesign};
use std::collections::BTreeMap;

/// One request parameter: a number, a string, or a boolean flag.
///
/// CLI values arrive as strings and are parsed on first typed access
/// (mirroring the historical `--key value` behavior); JSON values keep
/// their native type.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// A JSON number.
    Num(f64),
    /// A raw string (every CLI value starts here).
    Str(String),
    /// A JSON boolean.
    Bool(bool),
}

/// Parsed request parameters: an ordered `key → value` map with typed
/// accessors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Params {
    map: BTreeMap<String, ParamValue>,
}

impl Params {
    /// Parses `--key value` argv pairs; rejects stray positionals and
    /// dangling flags.
    pub fn from_argv(raw: &[String]) -> Result<Params, String> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got `{tok}`"))?;
            let val = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            map.insert(key.to_string(), ParamValue::Str(val.clone()));
        }
        Ok(Params { map })
    }

    /// Extracts parameters from a JSON object (the `params` member of a
    /// serve request). `null` members are treated as absent.
    pub fn from_json(obj: &JsonValue) -> Result<Params, String> {
        let members = match obj {
            JsonValue::Obj(members) => members,
            _ => return Err("params must be a JSON object".to_string()),
        };
        let mut map = BTreeMap::new();
        for (k, v) in members {
            let val = match v {
                JsonValue::Num(x) => ParamValue::Num(*x),
                JsonValue::Str(s) => ParamValue::Str(s.clone()),
                JsonValue::Bool(b) => ParamValue::Bool(*b),
                JsonValue::Null => continue,
                _ => return Err(format!("param `{k}`: expected number, string, or bool")),
            };
            map.insert(k.clone(), val);
        }
        Ok(Params { map })
    }

    /// Optional float: `None` when absent, an error when present but
    /// unparseable.
    pub fn f64_opt(&self, key: &str) -> Result<Option<f64>, String> {
        match self.map.get(key) {
            None => Ok(None),
            Some(ParamValue::Num(x)) => Ok(Some(*x)),
            Some(ParamValue::Str(v)) => v
                .parse::<f64>()
                .map(Some)
                .map_err(|_| format!("--{key}: `{v}` is not a number")),
            Some(ParamValue::Bool(b)) => Err(format!("--{key}: `{b}` is not a number")),
        }
    }

    /// Float with a default.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        Ok(self.f64_opt(key)?.unwrap_or(default))
    }

    /// Unsigned integer with a default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(ParamValue::Num(x)) => {
                if x.fract() == 0.0 && *x >= 0.0 && *x <= usize::MAX as f64 {
                    Ok(*x as usize)
                } else {
                    Err(format!("--{key}: `{x}` is not an integer"))
                }
            }
            Some(ParamValue::Str(v)) => v
                .parse::<usize>()
                .map_err(|_| format!("--{key}: `{v}` is not an integer")),
            Some(ParamValue::Bool(b)) => Err(format!("--{key}: `{b}` is not an integer")),
        }
    }

    /// Optional string (numbers and booleans render via `Display`).
    pub fn str_opt(&self, key: &str) -> Option<String> {
        match self.map.get(key) {
            None => None,
            Some(ParamValue::Str(s)) => Some(s.clone()),
            Some(ParamValue::Num(x)) => Some(x.to_string()),
            Some(ParamValue::Bool(b)) => Some(b.to_string()),
        }
    }

    /// Flag presence. A CLI `--flag x` and a JSON `"flag": true` both
    /// read as set; a JSON `"flag": false` reads as unset.
    pub fn has(&self, key: &str) -> bool {
        !matches!(self.map.get(key), None | Some(ParamValue::Bool(false)))
    }

    /// Unsigned integer with a default, at most `max`.
    fn usize_at_most(&self, key: &str, default: usize, max: usize) -> Result<usize, String> {
        let n = self.usize_or(key, default)?;
        if n > max {
            return Err(format!("--{key}: `{n}` exceeds the limit of {max}"));
        }
        Ok(n)
    }

    /// Worker-thread request from `threads` (`0` = auto-detect). A
    /// count above [`MAX_THREADS`] is an error: the worker pool never
    /// shrinks, so one request must not be able to grow it without
    /// bound.
    pub fn threads(&self) -> Result<usize, String> {
        self.usize_at_most("threads", 0, MAX_THREADS)
    }
}

/// Largest grid a `bode` or `sweep` request (`points`) or a `spur`
/// request (`kmax`) may ask for. Each point is evaluated, kept and
/// rendered: a Bode point or a spur line costs under a microsecond and
/// under 100 bytes all told, so this bounds such a request to about a
/// second of one core and tens of MB of memory (a 10⁶-point `bode`
/// of `A(jω)` or `spur` took under 0.7 s and 90 MB peak RSS on one
/// core of a 2-core x86-64 host). A larger count would only be refused later, if at
/// all, by a failed allocation that aborts the process. A sweep point
/// is a whole analysis (about 0.3 ms), so the limit bounds a sweep's
/// memory, and serve's `--deadline-ms` ladder its time.
pub const MAX_GRID_POINTS: usize = 1_000_000;

/// Largest work, in reference periods, a `step` or `hop` request may
/// ask for: `points · (until/T + 25)` with `T` the reference period.
/// The inversion integral behind each point costs about eight adaptive
/// quadratures per reference period of its time, plus a fixed part
/// worth about 25 periods, so this bounds one request to about half a
/// second on one core.
pub const MAX_TRANSIENT_PERIODS: f64 = 2e4;

/// The fixed per-point cost of the inversion integral, in reference
/// periods (see [`MAX_TRANSIENT_PERIODS`]).
const TRANSIENT_POINT_PERIODS: f64 = 25.0;

/// Rejects a transient horizon the inversion cannot finish: `until`
/// must be finite and positive, `points` at least 1, and the work at
/// most [`MAX_TRANSIENT_PERIODS`]. A design that does not build is left
/// for the handler to report.
fn check_transient_span(design: &DesignSpec, until: f64, points: usize) -> Result<(), String> {
    if !(until.is_finite() && until > 0.0) {
        return Err(format!("--until: `{until}` must be finite and positive"));
    }
    if points == 0 {
        return Err("--points: must be at least 1".to_string());
    }
    if let Ok(d) = design.build() {
        let periods = points as f64 * (until * d.f_ref() + TRANSIENT_POINT_PERIODS);
        if periods > MAX_TRANSIENT_PERIODS {
            return Err(format!(
                "--until/--points: {points} points to {until:e} s cost {periods:.3e} reference \
                 periods of work, above the limit of {MAX_TRANSIENT_PERIODS:e}"
            ));
        }
    }
    Ok(())
}

/// How to construct the [`PllDesign`] a request operates on.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignSpec {
    /// Normalized reference family: crossover at `ratio·ω₀` with the
    /// given zero/pole spread.
    Ratio {
        /// `ω_UG/ω₀` target.
        ratio: f64,
        /// Zero/pole spread (default 4).
        spread: f64,
    },
    /// Physical synthesis from reference frequency, divider, VCO gain
    /// and target bandwidth.
    Physical {
        /// Reference frequency, Hz.
        fref: f64,
        /// Feedback divider.
        n: f64,
        /// VCO gain, rad/s/V.
        kvco: f64,
        /// Target loop bandwidth, Hz.
        bw: f64,
        /// Zero/pole spread (default 4).
        spread: f64,
        /// Total filter capacitance, F (default 1 nF).
        ctotal: f64,
    },
}

impl DesignSpec {
    /// Extracts an optional design spec: `ratio` wins, then the
    /// physical-parameter family, then `None`.
    pub fn from_params(p: &Params) -> Result<Option<DesignSpec>, String> {
        if let Some(ratio) = p.f64_opt("ratio")? {
            return Ok(Some(DesignSpec::Ratio {
                ratio,
                spread: p.f64_or("spread", 4.0)?,
            }));
        }
        let Some(fref) = p.f64_opt("fref")? else {
            return Ok(None);
        };
        Ok(Some(DesignSpec::Physical {
            fref,
            n: p.f64_or("n", 1.0)?,
            kvco: p.f64_opt("kvco")?.ok_or("--kvco required with --fref")?,
            bw: p.f64_opt("bw")?.ok_or("--bw required with --fref")?,
            spread: p.f64_or("spread", 4.0)?,
            ctotal: p.f64_or("ctotal", 1e-9)?,
        }))
    }

    /// Like [`DesignSpec::from_params`], but a missing spec is an error.
    pub fn required(p: &Params) -> Result<DesignSpec, String> {
        DesignSpec::from_params(p)?.ok_or_else(|| "need --ratio or --fref/--n/--kvco/--bw".into())
    }

    /// Builds the concrete design.
    pub fn build(&self) -> Result<PllDesign, String> {
        let built: Result<PllDesign, CoreError> = match *self {
            DesignSpec::Ratio { ratio, spread } => {
                PllDesign::reference_design_shaped(ratio, spread)
            }
            DesignSpec::Physical {
                fref,
                n,
                kvco,
                bw,
                spread,
                ctotal,
            } => PllDesign::synthesize(
                fref,
                n,
                kvco,
                2.0 * std::f64::consts::PI * bw,
                spread,
                ctotal,
            ),
        };
        built.map_err(|e| e.to_string())
    }

    fn canonical(&self, out: &mut String) {
        match *self {
            DesignSpec::Ratio { ratio, spread } => {
                out.push_str(&format!(
                    "{{\"ratio\":{},\"spread\":{}}}",
                    canon_f64(ratio),
                    canon_f64(spread)
                ));
            }
            DesignSpec::Physical {
                fref,
                n,
                kvco,
                bw,
                spread,
                ctotal,
            } => {
                out.push_str(&format!(
                    "{{\"fref\":{},\"n\":{},\"kvco\":{},\"bw\":{},\"spread\":{},\"ctotal\":{}}}",
                    canon_f64(fref),
                    canon_f64(n),
                    canon_f64(kvco),
                    canon_f64(bw),
                    canon_f64(spread),
                    canon_f64(ctotal)
                ));
            }
        }
    }
}

/// Canonical float rendering for cache keys: bit-exact (`Display` is
/// shortest-roundtrip) and distinguishing `-0.0`/NaN payloads is not
/// needed for well-formed requests.
fn canon_f64(x: f64) -> String {
    if x.is_finite() {
        x.to_string()
    } else {
        format!("\"{x}\"")
    }
}

/// The `threads` request field a budget was parsed from (0 = auto).
fn thread_count(budget: ThreadBudget) -> usize {
    match budget {
        ThreadBudget::Auto => 0,
        ThreadBudget::Fixed(n) => n,
    }
}

/// The request id echoed on a serve response line.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestId {
    /// No `id` member on the request.
    None,
    /// A JSON string id.
    Str(String),
    /// A JSON numeric id.
    Num(f64),
}

impl RequestId {
    /// The `"id":...,` fragment for a response line (empty for `None`).
    pub fn json_fragment(&self) -> String {
        match self {
            RequestId::None => String::new(),
            RequestId::Str(s) => format!("\"id\":\"{}\",", crate::service::json::escape(s)),
            RequestId::Num(x) => format!("\"id\":{},", canon_f64(*x)),
        }
    }
}

/// One fully-parsed `plltool` command with owned parameters. Every
/// front end reduces to this type; [`crate::service::handle`] is the
/// single execution entry point.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Single-design analysis (`plltool analyze`).
    Analyze {
        /// Design under analysis.
        design: DesignSpec,
        /// Also report the sample-and-hold PFD margins (`--pfd sh`).
        pfd_sh: bool,
        /// Also print the symbolic λ(s) expansion.
        symbolic: bool,
    },
    /// Crossover-ratio sweep (`plltool sweep`).
    Sweep {
        /// First ratio.
        from: f64,
        /// Last ratio.
        to: f64,
        /// Grid points (at most [`MAX_GRID_POINTS`]).
        points: usize,
    },
    /// Bode table of `A(jω)` or `λ(jω)` (`plltool bode`).
    Bode {
        /// Design under analysis.
        design: DesignSpec,
        /// Grid points (at most [`MAX_GRID_POINTS`]).
        points: usize,
        /// Sweep λ instead of the LTI open loop.
        lambda: bool,
    },
    /// Phase-step transient (`plltool step`).
    Step {
        /// Design under analysis.
        design: DesignSpec,
        /// End time, s (finite, positive; the normalized family has
        /// ω_UG = 1 rad/s).
        until: f64,
        /// Sample count (at least 1).
        points: usize,
    },
    /// Frequency-hop tracking error (`plltool hop`).
    Hop {
        /// Design under analysis.
        design: DesignSpec,
        /// End time, s (finite, positive; the normalized family has
        /// ω_UG = 1 rad/s).
        until: f64,
        /// Sample count (at least 1).
        points: usize,
    },
    /// Leakage reference-spur table (`plltool spur`).
    Spur {
        /// Design under analysis.
        design: DesignSpec,
        /// Leakage as a fraction of the charge-pump current.
        leakage_frac: f64,
        /// Highest harmonic index (at most [`MAX_GRID_POINTS`]).
        kmax: usize,
    },
    /// Streaming design-space exploration (`plltool explore`).
    Explore(ExploreSpec),
    /// Loop-parameter optimization (`plltool optimize`).
    Optimize {
        /// Minimum acceptable effective phase margin, degrees.
        min_pm: f64,
        /// First ratio.
        from: f64,
        /// Last ratio.
        to: f64,
        /// Ratio grid points.
        points: usize,
        /// Reference phase-noise level (white).
        ref_noise: f64,
        /// VCO phase-noise level at the reference offset.
        vco_noise: f64,
    },
    /// Numerical-resilience health check (`plltool doctor`).
    Doctor {
        /// Design under test (defaults to the 0.1-ratio reference).
        design: Option<DesignSpec>,
        /// Worker threads (0 = auto).
        threads: usize,
    },
    /// Cross-stack differential verification (`plltool xcheck`).
    Xcheck {
        /// Corpus name (`default` or `quick`).
        corpus: String,
        /// Worker threads (0 = auto).
        threads: usize,
    },
    /// Instrumented pipeline run + metric export (`plltool metrics`).
    /// Mutates the process-global obs filter, so it is not servable.
    Metrics {
        /// Optional design override.
        design: Option<DesignSpec>,
        /// Obs filter spec for the run.
        obs_spec: String,
        /// Worker threads (0 = auto).
        threads: usize,
    },
    /// Seeded profiling workload matrix (`plltool profile`). Mutates
    /// process-global obs state, so it is not servable.
    Profile(ProfileSpec),
    /// Server telemetry probe — only meaningful under `plltool serve`.
    Stats,
}

impl Request {
    /// Parses one command's parameters into a typed request. Unknown
    /// parameter keys are ignored (wrapper flags like `--out` ride in
    /// the same map).
    pub fn parse(command: &str, p: &Params) -> Result<Request, String> {
        let threads = p.threads()?;
        Ok(match command {
            "analyze" => Request::Analyze {
                design: DesignSpec::required(p)?,
                pfd_sh: p.str_opt("pfd").as_deref() == Some("sh"),
                symbolic: p.has("symbolic"),
            },
            "sweep" => Request::Sweep {
                from: p.f64_or("from", 0.02)?,
                to: p.f64_or("to", 0.3)?,
                points: p.usize_at_most("points", 15, MAX_GRID_POINTS)?,
            },
            "bode" => Request::Bode {
                design: DesignSpec::required(p)?,
                points: p.usize_at_most("points", 31, MAX_GRID_POINTS)?,
                lambda: p.has("lambda"),
            },
            "step" | "hop" => {
                let design = DesignSpec::required(p)?;
                let until = p.f64_or("until", 40.0)?;
                let points = p.usize_or("points", 20)?;
                check_transient_span(&design, until, points)?;
                if command == "step" {
                    Request::Step {
                        design,
                        until,
                        points,
                    }
                } else {
                    Request::Hop {
                        design,
                        until,
                        points,
                    }
                }
            }
            "spur" => Request::Spur {
                design: DesignSpec::required(p)?,
                leakage_frac: p.f64_or("leakage-frac", 1e-3)?,
                kmax: p.usize_at_most("kmax", 4, MAX_GRID_POINTS)?,
            },
            "explore" => {
                let d = ExploreSpec::default();
                Request::Explore(ExploreSpec {
                    candidates: p.usize_or("candidates", d.candidates)?,
                    seed: p.usize_or("seed", d.seed as usize)? as u64,
                    min_pm_deg: p.f64_or("min-pm", d.min_pm_deg)?,
                    max_spur_dbc: p.f64_or("max-spur", d.max_spur_dbc)?,
                    front_cap: p.usize_or("front-cap", d.front_cap)?,
                    refine_rounds: p.usize_or("refine", d.refine_rounds)?,
                    screen: !p.has("full"),
                    quasi: p.has("quasi"),
                    threads: ThreadBudget::from(threads),
                })
            }
            "optimize" => Request::Optimize {
                min_pm: p.f64_or("min-pm", 45.0)?,
                from: p.f64_or("from", 0.03)?,
                to: p.f64_or("to", 0.25)?,
                points: p.usize_or("points", 10)?,
                ref_noise: p.f64_or("ref-noise", 1e-12)?,
                vco_noise: p.f64_or("vco-noise", 1e-11)?,
            },
            "doctor" => Request::Doctor {
                design: DesignSpec::from_params(p)?,
                threads,
            },
            "xcheck" => Request::Xcheck {
                corpus: p.str_opt("corpus").unwrap_or_else(|| "default".to_string()),
                threads,
            },
            "metrics" => Request::Metrics {
                design: DesignSpec::from_params(p)?,
                obs_spec: p.str_opt("obs").unwrap_or_else(|| "debug".to_string()),
                threads,
            },
            "profile" => {
                let d = ProfileSpec::default();
                Request::Profile(ProfileSpec {
                    ratio: p.f64_or("ratio", d.ratio)?,
                    points: p.usize_or("points", d.points)?,
                    trunc: p.usize_or("trunc", d.trunc)?,
                    reps: p.usize_or("reps", d.reps)?,
                    threads: ThreadBudget::from(threads),
                    seed: p.usize_or("seed", d.seed as usize)? as u64,
                })
            }
            "stats" => Request::Stats,
            other => return Err(format!("unknown command `{other}`")),
        })
    }

    /// Parses one serve JSON line:
    /// `{"id": ..., "command": "...", "params": {...}}`.
    pub fn from_json_line(line: &str) -> Result<(RequestId, Request), String> {
        let doc = crate::obs::parse_json(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let id = match doc.get("id") {
            None | Some(JsonValue::Null) => RequestId::None,
            Some(JsonValue::Str(s)) => RequestId::Str(s.clone()),
            Some(JsonValue::Num(x)) => RequestId::Num(*x),
            Some(_) => return Err("id must be a string or number".to_string()),
        };
        let command = doc
            .get("command")
            .and_then(|v| v.as_str())
            .ok_or("missing `command` member")?;
        let params = match doc.get("params") {
            None | Some(JsonValue::Null) => Params::default(),
            Some(obj) => Params::from_json(obj)?,
        };
        let req = Request::parse(command, &params)?;
        Ok((id, req))
    }

    /// The subcommand name this request executes.
    pub fn command(&self) -> &'static str {
        match self {
            Request::Analyze { .. } => "analyze",
            Request::Sweep { .. } => "sweep",
            Request::Bode { .. } => "bode",
            Request::Step { .. } => "step",
            Request::Hop { .. } => "hop",
            Request::Spur { .. } => "spur",
            Request::Explore(_) => "explore",
            Request::Optimize { .. } => "optimize",
            Request::Doctor { .. } => "doctor",
            Request::Xcheck { .. } => "xcheck",
            Request::Metrics { .. } => "metrics",
            Request::Profile(_) => "profile",
            Request::Stats => "stats",
        }
    }

    /// Whether `plltool serve` may execute this request. `metrics` and
    /// `profile` mutate the process-global obs filter/registry, so one
    /// request would corrupt every concurrent request's telemetry.
    pub fn is_servable(&self) -> bool {
        !matches!(
            self,
            Request::Metrics { .. } | Request::Profile(_) | Request::Stats
        )
    }

    /// The worker-thread budget encoded in the request (`Auto` for
    /// commands without one: a command on a single design runs on the
    /// calling thread).
    pub fn budget(&self) -> ThreadBudget {
        match self {
            Request::Doctor { threads, .. }
            | Request::Xcheck { threads, .. }
            | Request::Metrics { threads, .. } => ThreadBudget::from(*threads),
            Request::Explore(spec) => spec.threads,
            Request::Profile(spec) => spec.threads,
            _ => ThreadBudget::Auto,
        }
    }

    /// Canonical JSON for this request: a deterministic function of the
    /// typed fields (not of the incoming flag spelling), used as the
    /// serve response-cache key and its in-flight key (one handler run
    /// per spec).
    pub fn canonical_json(&self) -> String {
        let mut out = format!("{{\"command\":\"{}\"", self.command());
        let mut field = |k: &str, v: String| {
            out.push_str(&format!(",\"{k}\":{v}"));
        };
        match self {
            Request::Analyze {
                design,
                pfd_sh,
                symbolic,
            } => {
                let mut d = String::new();
                design.canonical(&mut d);
                field("design", d);
                field("pfd_sh", pfd_sh.to_string());
                field("symbolic", symbolic.to_string());
            }
            Request::Sweep { from, to, points } => {
                field("from", canon_f64(*from));
                field("to", canon_f64(*to));
                field("points", points.to_string());
            }
            Request::Bode {
                design,
                points,
                lambda,
            } => {
                let mut d = String::new();
                design.canonical(&mut d);
                field("design", d);
                field("lambda", lambda.to_string());
                field("points", points.to_string());
            }
            Request::Step {
                design,
                until,
                points,
            }
            | Request::Hop {
                design,
                until,
                points,
            } => {
                let mut d = String::new();
                design.canonical(&mut d);
                field("design", d);
                field("until", canon_f64(*until));
                field("points", points.to_string());
            }
            Request::Spur {
                design,
                leakage_frac,
                kmax,
            } => {
                let mut d = String::new();
                design.canonical(&mut d);
                field("design", d);
                field("leakage_frac", canon_f64(*leakage_frac));
                field("kmax", kmax.to_string());
            }
            Request::Explore(s) => {
                field("candidates", s.candidates.to_string());
                field("seed", s.seed.to_string());
                field("min_pm", canon_f64(s.min_pm_deg));
                field("max_spur", canon_f64(s.max_spur_dbc));
                field("front_cap", s.front_cap.to_string());
                field("refine", s.refine_rounds.to_string());
                field("full", (!s.screen).to_string());
                field("quasi", s.quasi.to_string());
                field("threads", thread_count(s.threads).to_string());
            }
            Request::Optimize {
                min_pm,
                from,
                to,
                points,
                ref_noise,
                vco_noise,
            } => {
                field("min_pm", canon_f64(*min_pm));
                field("from", canon_f64(*from));
                field("to", canon_f64(*to));
                field("points", points.to_string());
                field("ref_noise", canon_f64(*ref_noise));
                field("vco_noise", canon_f64(*vco_noise));
            }
            Request::Doctor { design, threads } => {
                let mut d = String::from("null");
                if let Some(spec) = design {
                    d.clear();
                    spec.canonical(&mut d);
                }
                field("design", d);
                field("threads", threads.to_string());
            }
            Request::Xcheck { corpus, threads } => {
                field(
                    "corpus",
                    format!("\"{}\"", crate::service::json::escape(corpus)),
                );
                field("threads", threads.to_string());
            }
            Request::Metrics {
                design,
                obs_spec,
                threads,
            } => {
                let mut d = String::from("null");
                if let Some(spec) = design {
                    d.clear();
                    spec.canonical(&mut d);
                }
                field("design", d);
                field(
                    "obs",
                    format!("\"{}\"", crate::service::json::escape(obs_spec)),
                );
                field("threads", threads.to_string());
            }
            Request::Profile(s) => {
                field("ratio", canon_f64(s.ratio));
                field("points", s.points.to_string());
                field("trunc", s.trunc.to_string());
                field("reps", s.reps.to_string());
                field("seed", s.seed.to_string());
                field("threads", thread_count(s.threads).to_string());
            }
            Request::Stats => {}
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn argv_and_json_params_agree() {
        let cli = Params::from_argv(&strs(&["--ratio", "0.1", "--points", "7"])).unwrap();
        let json =
            Params::from_json(&crate::obs::parse_json(r#"{"ratio": 0.1, "points": 7}"#).unwrap())
                .unwrap();
        for p in [&cli, &json] {
            assert_eq!(p.f64_opt("ratio").unwrap(), Some(0.1));
            assert_eq!(p.usize_or("points", 3).unwrap(), 7);
            assert_eq!(p.f64_or("missing", 2.5).unwrap(), 2.5);
            assert!(!p.has("symbolic"));
        }
        let a = Request::parse("analyze", &cli).unwrap();
        let b = Request::parse("analyze", &json).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.canonical_json(), b.canonical_json());
    }

    #[test]
    fn canonical_json_ignores_flag_spelling() {
        let a = Params::from_argv(&strs(&["--ratio", "0.1"])).unwrap();
        let ra = Request::parse("analyze", &a).unwrap();
        // A different spelling of the same design, and a thread count,
        // which no single-design command takes: one tail-cache key.
        for spelling in [
            &["--ratio", "1e-1", "--spread", "4"][..],
            &["--ratio", "0.1", "--threads", "4"],
        ] {
            let b = Params::from_argv(&strs(spelling)).unwrap();
            let rb = Request::parse("analyze", &b).unwrap();
            assert_eq!(ra.canonical_json(), rb.canonical_json(), "{spelling:?}");
        }
    }

    #[test]
    fn from_json_line_roundtrip() {
        let (id, req) = Request::from_json_line(
            r#"{"id": "r1", "command": "bode", "params": {"ratio": 0.1, "lambda": true}}"#,
        )
        .unwrap();
        assert_eq!(id, RequestId::Str("r1".to_string()));
        match req {
            Request::Bode { lambda, points, .. } => {
                assert!(lambda);
                assert_eq!(points, 31);
            }
            other => panic!("wrong request: {other:?}"),
        }
        assert!(Request::from_json_line("not json").is_err());
        assert!(Request::from_json_line(r#"{"params": {}}"#).is_err());
        assert!(Request::from_json_line(r#"{"command": "frobnicate"}"#).is_err());
    }

    #[test]
    fn servability_gates_global_mutators() {
        let p = Params::default();
        assert!(!Request::parse("metrics", &p).unwrap().is_servable());
        assert!(!Request::parse("profile", &p).unwrap().is_servable());
        assert!(!Request::parse("stats", &p).unwrap().is_servable());
        assert!(Request::parse("sweep", &p).unwrap().is_servable());
    }

    #[test]
    fn thread_limit_is_inclusive() {
        // Parsing alone: nothing here starts a thread.
        let at = Params::from_argv(&strs(&["--threads", "256"])).unwrap();
        assert_eq!(at.threads().unwrap(), MAX_THREADS);
        let over = Params::from_argv(&strs(&["--threads", "257"])).unwrap();
        assert_eq!(
            over.threads().unwrap_err(),
            "--threads: `257` exceeds the limit of 256"
        );
    }

    #[test]
    fn grid_limits_are_inclusive() {
        // Parsing alone: no handler runs on an over-limit count.
        for (command, key) in [("bode", "points"), ("sweep", "points"), ("spur", "kmax")] {
            let at = Params::from_argv(&strs(&["--ratio", "0.1", &format!("--{key}"), "1000000"]))
                .unwrap();
            Request::parse(command, &at).unwrap();
            let over = Params::from_json(
                &crate::obs::parse_json(&format!(r#"{{"ratio": 0.1, "{key}": 1e15}}"#)).unwrap(),
            )
            .unwrap();
            assert_eq!(
                Request::parse(command, &over).unwrap_err(),
                format!("--{key}: `1000000000000000` exceeds the limit of 1000000")
            );
        }
    }

    #[test]
    fn design_spec_errors_match_cli_wording() {
        let p = Params::default();
        assert_eq!(
            DesignSpec::required(&p).unwrap_err(),
            "need --ratio or --fref/--n/--kvco/--bw"
        );
        let p = Params::from_argv(&strs(&["--fref", "10e6"])).unwrap();
        assert_eq!(
            DesignSpec::required(&p).unwrap_err(),
            "--kvco required with --fref"
        );
    }
}
