//! Event-stream exporters: JSONL and Chrome `trace_event`.
//!
//! JSONL is the lossless interchange format — one event object per line,
//! integers kept exact, and [`read_jsonl_lossy`] of a clean file inverts
//! [`write_jsonl`] bit-for-bit. The Chrome format targets `chrome://tracing` / Perfetto:
//! each [`Track`] becomes a named thread, spans become `B`/`E` pairs and
//! marks become instant (`i`) events, with timestamps converted from
//! modeled cycles to microseconds.

use crate::event::{Event, EventKind, PointKind, SpanKind, Track};
use crate::json::Json;
#[cfg(doc)]
use crate::reader::read_jsonl_lossy;

/// Serializes one event as a JSON object.
pub fn event_to_json(event: &Event) -> Json {
    let mut fields = vec![
        ("cycles", Json::UInt(event.cycles)),
        ("track", Json::str(event.track.name())),
    ];
    match event.kind {
        EventKind::Begin(span, arg) => {
            fields.push(("type", Json::str("begin")));
            fields.push(("span", Json::str(span.name())));
            fields.push(("arg", Json::UInt(arg)));
        }
        EventKind::End(span, arg) => {
            fields.push(("type", Json::str("end")));
            fields.push(("span", Json::str(span.name())));
            fields.push(("arg", Json::UInt(arg)));
        }
        EventKind::Mark(point, a, b) => {
            fields.push(("type", Json::str("mark")));
            fields.push(("point", Json::str(point.name())));
            fields.push(("a", Json::UInt(a)));
            fields.push(("b", Json::UInt(b)));
        }
    }
    Json::obj(fields)
}

/// Reconstructs an event from [`event_to_json`] output.
pub fn event_from_json(value: &Json) -> Option<Event> {
    let cycles = value.get("cycles")?.as_u64()?;
    let track = Track::from_name(value.get("track")?.as_str()?)?;
    let kind = match value.get("type")?.as_str()? {
        "begin" => EventKind::Begin(
            SpanKind::from_name(value.get("span")?.as_str()?)?,
            value.get("arg")?.as_u64()?,
        ),
        "end" => EventKind::End(
            SpanKind::from_name(value.get("span")?.as_str()?)?,
            value.get("arg")?.as_u64()?,
        ),
        "mark" => EventKind::Mark(
            PointKind::from_name(value.get("point")?.as_str()?)?,
            value.get("a")?.as_u64()?,
            value.get("b")?.as_u64()?,
        ),
        _ => return None,
    };
    Some(Event {
        cycles,
        track,
        kind,
    })
}

/// Writes events as JSONL: one compact JSON object per line.
pub fn write_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event_to_json(event).to_string());
        out.push('\n');
    }
    out
}

fn track_tid(track: Track) -> u64 {
    match track {
        Track::El0 => 0,
        Track::El1 => 1,
        Track::El2 => 2,
        Track::Mbm => 3,
    }
}

/// Microseconds (as JSON) for a cycle stamp at `cycles_per_us`.
fn chrome_ts(cycles: u64, cycles_per_us: f64) -> Json {
    Json::Float(cycles as f64 / cycles_per_us)
}

/// Serializes events in Chrome `trace_event` JSON object format, loadable
/// in `chrome://tracing` and Perfetto. `cycles_per_us` converts the
/// modeled cycle counter to trace microseconds (e.g. 1150.0 for the
/// simulated 1.15 GHz core).
pub fn write_chrome_trace(events: &[Event], cycles_per_us: f64) -> String {
    assert!(cycles_per_us > 0.0, "cycles_per_us must be positive");
    let mut trace_events = Vec::new();

    // Metadata: name the process and one thread per track.
    trace_events.push(Json::obj(vec![
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::UInt(1)),
        ("tid", Json::UInt(0)),
        ("args", Json::obj(vec![("name", Json::str("hypernel-sim"))])),
    ]));
    for track in Track::ALL {
        trace_events.push(Json::obj(vec![
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(track_tid(track))),
            ("args", Json::obj(vec![("name", Json::str(track.name()))])),
        ]));
    }

    for event in events {
        let common = |name: &str, ph: &str| {
            vec![
                ("name", Json::str(name)),
                ("cat", Json::str(event.track.name())),
                ("ph", Json::str(ph)),
                ("ts", chrome_ts(event.cycles, cycles_per_us)),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(track_tid(event.track))),
            ]
        };
        let entry = match event.kind {
            EventKind::Begin(span, arg) => {
                let mut fields = common(span.name(), "B");
                fields.push(("args", Json::obj(vec![("arg", Json::UInt(arg))])));
                Json::obj(fields)
            }
            EventKind::End(span, arg) => {
                let mut fields = common(span.name(), "E");
                fields.push(("args", Json::obj(vec![("arg", Json::UInt(arg))])));
                Json::obj(fields)
            }
            EventKind::Mark(point, a, b) => {
                let mut fields = common(point.name(), "i");
                // Thread-scoped instant.
                fields.push(("s", Json::str("t")));
                fields.push((
                    "args",
                    Json::obj(vec![("a", Json::UInt(a)), ("b", Json::UInt(b))]),
                ));
                Json::obj(fields)
            }
        };
        trace_events.push(entry);
    }

    Json::obj(vec![
        ("traceEvents", Json::Array(trace_events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::read_jsonl_lossy;
    use std::collections::HashMap;

    /// Reads a trace back, demanding that no line was skipped.
    fn read_back(text: &str) -> Vec<Event> {
        let trace = read_jsonl_lossy(text);
        assert_eq!(trace.skipped, 0, "{:?}", trace.skip_details);
        trace.events
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::mark(10, Track::El1, PointKind::Hypercall, 3, 0),
            Event::begin(12, Track::El2, SpanKind::HypercallVerify, 3),
            Event::begin(14, Track::El2, SpanKind::Stage2Check, 0),
            Event::end(20, Track::El2, SpanKind::Stage2Check, 1),
            Event::end(25, Track::El2, SpanKind::HypercallVerify, 0),
            Event::mark(30, Track::Mbm, PointKind::MbmFifoPush, 0x4000, u64::MAX),
            Event::begin(40, Track::El1, SpanKind::MbmIrqService, 5),
            Event::end(90, Track::El1, SpanKind::MbmIrqService, 0),
        ]
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let events = sample_events();
        let text = write_jsonl(&events);
        assert_eq!(text.lines().count(), events.len());
        assert_eq!(read_back(&text), events);
    }

    #[test]
    fn jsonl_round_trips_every_kind_and_track() {
        let mut events = Vec::new();
        let mut cycles = 0;
        for track in Track::ALL {
            for span in SpanKind::ALL {
                events.push(Event::begin(cycles, track, span, cycles));
                events.push(Event::end(cycles + 1, track, span, u64::MAX));
                cycles += 2;
            }
            for point in PointKind::ALL {
                events.push(Event::mark(cycles, track, point, u64::MAX, 0));
                cycles += 1;
            }
        }
        assert_eq!(read_back(&write_jsonl(&events)), events);
    }

    #[test]
    fn jsonl_errors_name_the_line() {
        let trace = read_jsonl_lossy("{\"cycles\":1}\n");
        assert_eq!(trace.skip_details, [(1, "not a telemetry event".into())]);
        let trace = read_jsonl_lossy("\n{bad\n");
        assert_eq!(trace.skipped, 1);
        assert_eq!(trace.skip_details[0].0, 2);
    }

    #[test]
    fn chrome_trace_is_valid_and_paired() {
        let events = sample_events();
        let doc = Json::parse(&write_chrome_trace(&events, 1150.0)).unwrap();
        let entries = doc.get("traceEvents").and_then(Json::as_array).unwrap();

        // 1 process + 4 thread metadata entries precede the events.
        let (meta, rest) = entries.split_at(5);
        assert!(meta
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) == Some("M")));
        assert_eq!(rest.len(), events.len());

        // Begin/end pairing per (tid, name): every E closes the most
        // recent open B of the same name, and nothing stays open.
        let mut open: HashMap<(u64, String), u64> = HashMap::new();
        for entry in rest {
            let ph = entry.get("ph").and_then(Json::as_str).unwrap();
            let tid = entry.get("tid").and_then(Json::as_u64).unwrap();
            let name = entry
                .get("name")
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            match ph {
                "B" => *open.entry((tid, name)).or_insert(0) += 1,
                "E" => {
                    let n = open.get_mut(&(tid, name)).expect("E without B");
                    assert!(*n > 0, "E without open B");
                    *n -= 1;
                }
                "i" => assert_eq!(entry.get("s").and_then(Json::as_str), Some("t")),
                other => panic!("unexpected phase {other}"),
            }
        }
        assert!(open.values().all(|&n| n == 0), "unclosed spans: {open:?}");
    }

    #[test]
    fn chrome_timestamps_are_monotonic_and_scaled() {
        let events = sample_events();
        let doc = Json::parse(&write_chrome_trace(&events, 2.0)).unwrap();
        let entries = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let ts: Vec<f64> = entries
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
            .map(|e| e.get("ts").and_then(Json::as_f64).unwrap())
            .collect();
        for pair in ts.windows(2) {
            assert!(pair[0] <= pair[1], "timestamps went backwards: {ts:?}");
        }
        // cycles=10 at 2 cycles/us → 5 us.
        assert_eq!(ts[0], 5.0);
    }

    #[test]
    fn empty_trace_still_loads() {
        let doc = Json::parse(&write_chrome_trace(&[], 1150.0)).unwrap();
        let entries = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        assert_eq!(entries.len(), 5); // metadata only
        assert_eq!(
            doc.get("displayTimeUnit").and_then(Json::as_str),
            Some("ms")
        );
    }
}
