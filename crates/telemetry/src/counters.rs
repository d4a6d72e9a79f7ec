//! Counter tables: each stats struct declares its counters once, in a
//! `COUNTERS` table of [`Counter`] rows beside it. A row names its field,
//! says whether it is a model or a host counter, and carries its name in
//! each artifact. Every artifact writer iterates the tables through
//! [`samples`], which yields model counters only; a host counter's value
//! comes out of a table only as a [`HostCount`], which no writer takes.

use std::fmt;

use crate::json::Json;
use crate::metrics::MetricDef;

/// Whether a counter may enter a deterministic artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// A simulated quantity: the same with the fast paths on or off.
    Model,
    /// Host observability: it depends on which fast paths ran.
    Host,
}

/// A counter's name in each artifact; `None` keeps it out of that one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Names {
    /// `coverage.json` feature key.
    pub coverage: Option<&'static str>,
    /// `metrics.jsonl` series.
    pub metric: Option<MetricDef>,
    /// Run-report key, also the flight recorder's.
    pub report: Option<&'static str>,
    /// Campaign-record key, also the campaign summary's.
    pub record: Option<&'static str>,
}

/// A host counter's value: it prints, but converts into neither a `u64`
/// nor a JSON value, so no artifact writer can take it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCount(u64);

impl fmt::Display for HostCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// One row of stats struct `S`'s table, written with
/// [`counter!`](crate::counter): a `u64` field, or a model value
/// derived from several (which has no `slot`).
pub struct Counter<S: 'static> {
    /// The field, or how a derived value derives.
    pub field: &'static str,
    /// Model or host.
    pub scope: Scope,
    /// Where the counter appears.
    pub names: Names,
    read: fn(&S) -> u64,
    slot: Option<fn(&mut S) -> &mut u64>,
}

impl<S> Counter<S> {
    #[doc(hidden)]
    pub const fn new(
        field: &'static str,
        scope: Scope,
        names: Names,
        read: fn(&S) -> u64,
        slot: Option<fn(&mut S) -> &mut u64>,
    ) -> Self {
        Self {
            field,
            scope,
            names,
            read,
            slot,
        }
    }

    /// The value of a model counter; `None` for a host counter.
    pub fn value(&self, stats: &S) -> Option<u64> {
        (self.scope == Scope::Model).then(|| (self.read)(stats))
    }

    /// The value of a host counter; `None` for a model counter.
    pub fn host_value(&self, stats: &S) -> Option<HostCount> {
        (self.scope == Scope::Host).then(|| HostCount((self.read)(stats)))
    }

    /// The field of a field row, for reading an artifact back.
    pub fn slot<'a>(&self, stats: &'a mut S) -> Option<&'a mut u64> {
        Some((self.slot?)(stats))
    }
}

/// A [`Counter`] row naming its field once: `counter!(field, coverage =
/// "...", metric = metrics::TLB_HITS, report = "...", record = "...")`
/// with any of the names for a model counter; `counter!(host field)` for
/// a host counter, which has no names; `counter!(derived "how" = |s|
/// ..., names)` for a model value derived from several fields.
#[macro_export]
macro_rules! counter {
    (host $field:ident) => {
        $crate::counters::Counter::new(
            stringify!($field),
            $crate::counters::Scope::Host,
            $crate::counter!(@names),
            |s| s.$field,
            Some(|s| &mut s.$field),
        )
    };
    (derived $what:literal = $read:expr $(, $artifact:ident = $name:expr)* $(,)?) => {
        $crate::counters::Counter::new(
            $what,
            $crate::counters::Scope::Model,
            $crate::counter!(@names $($artifact = $name),*),
            $read,
            None,
        )
    };
    ($field:ident $(, $artifact:ident = $name:expr)* $(,)?) => {
        $crate::counters::Counter::new(
            stringify!($field),
            $crate::counters::Scope::Model,
            $crate::counter!(@names $($artifact = $name),*),
            |s| s.$field,
            Some(|s| &mut s.$field),
        )
    };
    (@names $($artifact:ident = $name:expr),*) => {{
        #[allow(unused_mut)]
        let mut names = $crate::counters::Names { coverage: None, metric: None, report: None, record: None };
        $(names.$artifact = Some($name);)*
        names
    }};
}

/// `(name, value)` of every model counter of `table` that `name` names
/// (`|n| n.report`), in table order: what every artifact writer reads.
pub fn samples<'a, S>(
    table: &'a [Counter<S>],
    stats: &'a S,
    name: fn(&Names) -> Option<&'static str>,
) -> impl Iterator<Item = (&'static str, u64)> + 'a {
    table
        .iter()
        .filter_map(move |c| Some((name(&c.names)?, c.value(stats)?)))
}

/// A JSON object of `(name, count)` pairs, as [`samples`] yields them.
pub fn json_object<'a>(counters: impl IntoIterator<Item = (&'a str, u64)>) -> Json {
    Json::obj(
        counters
            .into_iter()
            .map(|(k, n)| (k, Json::UInt(n)))
            .collect(),
    )
}

/// Adds every model field counter of `from` into `into`.
pub fn add<S>(table: &[Counter<S>], into: &mut S, from: &S) {
    for c in table {
        if let (Some(n), Some(slot)) = (c.value(from), c.slot) {
            *slot(into) += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    #[derive(Debug, Default, Clone, Copy, PartialEq)]
    struct Stats {
        a: u64,
        b: u64,
        c: u64,
    }

    #[rustfmt::skip]
    const TABLE: &[Counter<Stats>] = &[
        counter!(a, coverage = "x/a", metric = metrics::TLB_HITS, record = "a"),
        counter!(host b),
        counter!(c, report = "c"),
        counter!(derived "a - c" = |s| s.a.saturating_sub(s.c), coverage = "x/a-c"),
    ];

    const STATS: Stats = Stats { a: 5, b: 7, c: 2 };

    #[test]
    fn samples_yield_model_rows_by_artifact_name() {
        let cov: Vec<_> = samples(TABLE, &STATS, |n| n.coverage).collect();
        assert_eq!(cov, [("x/a", 5), ("x/a-c", 3)]);
        let report: Vec<_> = samples(TABLE, &STATS, |n| n.report).collect();
        assert_eq!(report, [("c", 2)]);
        let metric: Vec<_> = samples(TABLE, &STATS, |n| Some(n.metric?.name)).collect();
        assert_eq!(metric, [("tlb-hits", 5)]);
        assert_eq!(json_object(report).to_string(), r#"{"c":2}"#);
    }

    #[test]
    fn host_rows_come_out_only_as_host_counts() {
        assert_eq!(TABLE[1].scope, Scope::Host);
        assert_eq!(TABLE[1].names, Names::default());
        assert_eq!(TABLE[1].value(&STATS), None);
        assert_eq!(TABLE[1].host_value(&STATS), Some(HostCount(7)));
        assert_eq!(TABLE[1].host_value(&STATS).unwrap().to_string(), "7");
        assert_eq!(TABLE[0].host_value(&STATS), None);
    }

    #[test]
    fn slots_read_back_and_add_model_fields_only() {
        let mut s = Stats::default();
        *TABLE[0].slot(&mut s).expect("field row") += 4;
        assert_eq!(s.a, 4);
        assert!(
            TABLE[3].slot(&mut s).is_none(),
            "a derived row has no field"
        );
        add(TABLE, &mut s, &STATS);
        assert_eq!(s, Stats { a: 9, b: 0, c: 2 });
    }
}
