//! `serve` streams: a response line leaves as soon as every line before
//! it is answered, and a spec runs its handler at most once however
//! its duplicates interleave across workers.

use htmpll::requests::Request;
use htmpll::service::{handle, serve_lines, ServeOptions, ServiceCtx};
use std::io::{Cursor, Write};
use std::time::{Duration, Instant};

/// A sink that stamps the instant each complete line reaches it.
#[derive(Default)]
struct StampedSink {
    bytes: Vec<u8>,
    stamps: Vec<Instant>,
}

impl Write for StampedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let now = Instant::now();
        self.stamps
            .extend(buf.iter().filter(|&&b| b == b'\n').map(|_| now));
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// How long `line`'s handler takes on a fresh context.
fn handler_time(line: &str) -> Duration {
    let (_, req) = Request::from_json_line(line).expect("request parses");
    let t = Instant::now();
    let resp = handle(&req, &ServiceCtx::new());
    let took = t.elapsed();
    assert!(resp.failure().is_none(), "{line} failed");
    took
}

#[test]
fn lines_leave_as_they_finish() {
    // Three distinct slow sweeps on one worker run one after another;
    // each line must reach the sink when its own sweep is done, at
    // least half a handler's time after the line before it.
    let lines: Vec<String> = (0..3)
        .map(|i| {
            format!(
                "{{\"id\":{i},\"command\":\"sweep\",\"params\":{{\"from\":0.0{},\"to\":0.3,\"points\":24}}}}",
                5 + i
            )
        })
        .collect();
    // The fastest of the three, timed alone: a lower bound that load
    // from other tests can only raise.
    let took = lines.iter().map(|l| handler_time(l)).min().unwrap();
    let mut sink = StampedSink::default();
    let opts = ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    };
    let summary = serve_lines(Cursor::new(lines.join("\n")), &mut sink, &opts).unwrap();
    assert_eq!((summary.responded, summary.errors), (3, 0));
    assert_eq!(sink.stamps.len(), 3);
    for k in 0..2 {
        let gap = sink.stamps[k + 1] - sink.stamps[k];
        assert!(
            gap >= took / 2,
            "line {} reached the sink {gap:?} after line {k}; a handler takes {took:?}",
            k + 1
        );
    }
}

#[test]
fn one_handler_run_per_spec() {
    // 1,000 lines over 5 specs on 4 workers: each spec misses the tail
    // cache once and runs once; every other line joins that run or hits
    // the cache.
    let mut input = String::new();
    for i in 0..1000 {
        let ratio = 0.06 + 0.01 * (i % 5) as f64;
        input.push_str(&format!(
            "{{\"id\":{i},\"command\":\"analyze\",\"params\":{{\"ratio\":{ratio}}}}}\n"
        ));
    }
    input.push_str("{\"id\":\"s\",\"command\":\"stats\"}\n");
    let mut out = Vec::new();
    let opts = ServeOptions {
        workers: 4,
        ..ServeOptions::default()
    };
    let summary = serve_lines(Cursor::new(input), &mut out, &opts).unwrap();
    let out = String::from_utf8(out).unwrap();
    let stats = out.trim_end().rsplit_once('\n').unwrap().1;
    let misses = htmpll::obs::parse_json(stats)
        .unwrap()
        .get("result")
        .and_then(|r| r.get("response_cache")?.get("misses")?.as_f64())
        .unwrap();
    assert_eq!((misses, summary.response_cache_hits), (5.0, 995), "{stats}");
    assert_eq!(summary.errors, 0);
}
