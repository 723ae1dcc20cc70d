//! Counters, gauges, fixed-bucket histograms, and the registry that
//! renders them as a text report or in Prometheus text format.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.inc_by(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn inc_by(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram with Prometheus semantics: a bucket counts
/// observations `v <= bound` (non-cumulative internally, rendered
/// cumulatively), plus a running sum and count.
#[derive(Debug)]
pub struct Histogram {
    /// Ascending, finite upper bounds; an implicit `+Inf` bucket follows.
    bounds: Vec<f64>,
    /// One slot per bound plus the `+Inf` slot.
    buckets: Vec<AtomicU64>,
    /// Sum of observations, stored as `f64` bits (CAS-updated).
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite (+Inf is implicit)"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|bound| v <= *bound)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
    }

    /// Records a duration in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Cumulative bucket counts as `(upper bound, count of v <= bound)`;
    /// the final entry is `(f64::INFINITY, total count)`.
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut running = 0;
        let mut out = Vec::with_capacity(self.buckets.len());
        for (i, slot) in self.buckets.iter().enumerate() {
            running += slot.load(Ordering::Relaxed);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, running));
        }
        out
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the bucket containing the target rank — the same estimate
    /// `histogram_quantile` makes in PromQL, with the same caveat: the
    /// answer is bucket-resolution, not exact. Observations landing in
    /// the `+Inf` bucket clamp to the largest finite bound. Returns 0.0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let buckets = self.cumulative_buckets();
        let total = buckets.last().map(|&(_, c)| c).unwrap_or(0);
        if total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * total as f64;
        let mut prev_bound = 0.0;
        let mut prev_count = 0u64;
        for &(bound, count) in &buckets {
            if (count as f64) >= rank {
                if bound.is_infinite() {
                    // no upper edge to interpolate toward; clamp
                    return prev_bound;
                }
                let in_bucket = (count - prev_count) as f64;
                if in_bucket == 0.0 {
                    return bound;
                }
                let frac = (rank - prev_count as f64) / in_bucket;
                return prev_bound + (bound - prev_bound) * frac.clamp(0.0, 1.0);
            }
            prev_bound = bound;
            prev_count = count;
        }
        prev_bound
    }
}

/// Canonical label key: pairs sorted by label name.
type LabelSet = Vec<(String, String)>;

/// One family's series, sorted by label set so a lookup can binary-search
/// with borrowed labels and render in order.
type Series<T> = Vec<(LabelSet, Arc<T>)>;

/// Most labels a lookup sorts on the stack; longer label lists (none in
/// this workspace) sort in a temporary `Vec`.
const INLINE_LABELS: usize = 8;

/// The series for `labels` (any order), created with `make` on first
/// use. Allocates only when the series is new.
fn series_entry<T>(
    series: &mut Series<T>,
    labels: &[(&str, &str)],
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let mut inline = [("", ""); INLINE_LABELS];
    let mut spilled = Vec::new();
    let sorted: &mut [(&str, &str)] = if labels.len() <= INLINE_LABELS {
        inline[..labels.len()].copy_from_slice(labels);
        &mut inline[..labels.len()]
    } else {
        spilled.extend_from_slice(labels);
        &mut spilled
    };
    sorted.sort_unstable();
    let found = series.binary_search_by(|(key, _)| {
        key.iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .cmp(sorted.iter().copied())
    });
    match found {
        Ok(i) => series[i].1.clone(),
        Err(i) => {
            let key = sorted
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect();
            let created = Arc::new(make());
            series.insert(i, (key, created.clone()));
            created
        }
    }
}

enum FamilyKind {
    Counter(Series<Counter>),
    Gauge(Series<Gauge>),
    Histogram {
        bounds: Vec<f64>,
        series: Series<Histogram>,
    },
}

impl FamilyKind {
    fn type_name(&self) -> &'static str {
        match self {
            FamilyKind::Counter(_) => "counter",
            FamilyKind::Gauge(_) => "gauge",
            FamilyKind::Histogram { .. } => "histogram",
        }
    }
}

struct Family {
    help: &'static str,
    kind: FamilyKind,
}

/// A metric registry: families keyed by metric name, each holding one
/// series per label set. [`crate::metrics()`] is the process-global
/// instance the pipeline records into; tests may build private ones.
/// Looking up a series that already exists allocates nothing.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Runs `f` on family `name`, registering it with `help` and
    /// `new_kind()` first if it is new.
    fn with_family<R>(
        &self,
        name: &str,
        help: &'static str,
        new_kind: impl FnOnce() -> FamilyKind,
        f: impl FnOnce(&mut FamilyKind) -> R,
    ) -> R {
        let mut families = self.families.lock().expect("metric registry lock");
        if let Some(family) = families.get_mut(name) {
            return f(&mut family.kind);
        }
        let family = families.entry(name.to_string()).or_insert(Family {
            help,
            kind: new_kind(),
        });
        f(&mut family.kind)
    }

    /// The counter `name` with no labels, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn counter(&self, name: &str, help: &'static str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// The counter `name` with the given labels, registering on first
    /// use. Label order does not matter; `help` is kept from the first
    /// registration.
    pub fn counter_with(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        self.with_family(
            name,
            help,
            || FamilyKind::Counter(Vec::new()),
            |kind| match kind {
                FamilyKind::Counter(series) => series_entry(series, labels, Counter::default),
                other => panic!(
                    "metric {name} already registered as a {}, not a counter",
                    other.type_name()
                ),
            },
        )
    }

    /// The gauge `name` with no labels, registering it on first use.
    pub fn gauge(&self, name: &str, help: &'static str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// The gauge `name` with the given labels, registering on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn gauge_with(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        self.with_family(
            name,
            help,
            || FamilyKind::Gauge(Vec::new()),
            |kind| match kind {
                FamilyKind::Gauge(series) => series_entry(series, labels, Gauge::default),
                other => panic!(
                    "metric {name} already registered as a {}, not a gauge",
                    other.type_name()
                ),
            },
        )
    }

    /// The histogram `name` with no labels, registering it on first use
    /// with `bounds` (ascending, finite; `+Inf` is implicit). Later
    /// callers share the first registration's bounds.
    pub fn histogram(&self, name: &str, help: &'static str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, help, &[], bounds)
    }

    /// The histogram `name` with the given labels, registering on first
    /// use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &'static str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        self.with_family(
            name,
            help,
            || FamilyKind::Histogram {
                bounds: bounds.to_vec(),
                series: Vec::new(),
            },
            |kind| match kind {
                FamilyKind::Histogram { bounds, series } => {
                    series_entry(series, labels, || Histogram::new(bounds))
                }
                other => panic!(
                    "metric {name} already registered as a {}, not a histogram",
                    other.type_name()
                ),
            },
        )
    }

    /// Drops every registered family. Existing handles keep working but
    /// are no longer rendered — meant for tests and repeated reports.
    pub fn reset(&self) {
        self.families.lock().expect("metric registry lock").clear();
    }

    /// Renders every family in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, cumulative `_bucket`/`_sum`/`_count`
    /// series for histograms), suitable for a `/metrics` page.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("metric registry lock");
        let mut out = String::new();
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(family.help));
            let _ = writeln!(out, "# TYPE {name} {}", family.kind.type_name());
            match &family.kind {
                FamilyKind::Counter(series) => {
                    for (labels, counter) in series {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels), counter.get());
                    }
                }
                FamilyKind::Gauge(series) => {
                    for (labels, gauge) in series {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels), gauge.get());
                    }
                }
                FamilyKind::Histogram { series, .. } => {
                    for (labels, histogram) in series {
                        for (bound, cumulative) in histogram.cumulative_buckets() {
                            let le = if bound.is_infinite() {
                                "+Inf".to_string()
                            } else {
                                format_f64(bound)
                            };
                            let mut with_le = labels.clone();
                            with_le.push(("le".to_string(), le));
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                render_labels(&with_le)
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_sum{} {}",
                            render_labels(labels),
                            format_f64(histogram.sum())
                        );
                        let _ = writeln!(
                            out,
                            "{name}_count{} {}",
                            render_labels(labels),
                            histogram.count()
                        );
                    }
                }
            }
        }
        out
    }

    /// Renders a human-readable report: one aligned line per series,
    /// histograms summarized as count/sum/mean. Durations (metrics named
    /// `*_seconds`) are scaled to ns/µs/ms for reading.
    pub fn render_text(&self) -> String {
        let families = self.families.lock().expect("metric registry lock");
        let mut out = String::from("== metrics ==\n");
        if families.is_empty() {
            out.push_str("(none recorded)\n");
            return out;
        }
        for (name, family) in families.iter() {
            match &family.kind {
                FamilyKind::Counter(series) => {
                    for (labels, counter) in series {
                        let _ = writeln!(
                            out,
                            "counter   {name}{} = {}",
                            render_labels(labels),
                            counter.get()
                        );
                    }
                }
                FamilyKind::Gauge(series) => {
                    for (labels, gauge) in series {
                        let _ = writeln!(
                            out,
                            "gauge     {name}{} = {}",
                            render_labels(labels),
                            gauge.get()
                        );
                    }
                }
                FamilyKind::Histogram { series, .. } => {
                    let seconds = name.ends_with("_seconds");
                    for (labels, histogram) in series {
                        let count = histogram.count();
                        let sum = histogram.sum();
                        let mean = if count == 0 { 0.0 } else { sum / count as f64 };
                        let (sum, mean) = if seconds {
                            (fmt_seconds(sum), fmt_seconds(mean))
                        } else {
                            (format_f64(sum), format_f64(mean))
                        };
                        let _ = writeln!(
                            out,
                            "histogram {name}{} count={count} sum={sum} mean={mean}",
                            render_labels(labels),
                        );
                    }
                }
            }
        }
        out
    }

    /// Renders p50/p90/p99 estimates for every histogram series, derived
    /// from the fixed bucket counts ([`Histogram::quantile`]). Duration
    /// histograms (`*_seconds`) are scaled for reading; empty when no
    /// histograms have observations.
    pub fn render_quantiles(&self) -> String {
        let families = self.families.lock().expect("metric registry lock");
        let mut out = String::new();
        for (name, family) in families.iter() {
            let FamilyKind::Histogram { series, .. } = &family.kind else {
                continue;
            };
            let seconds = name.ends_with("_seconds");
            for (labels, histogram) in series {
                if histogram.count() == 0 {
                    continue;
                }
                if out.is_empty() {
                    out.push_str("== quantile estimates (from histogram buckets) ==\n");
                }
                let fmt = |v: f64| {
                    if seconds {
                        fmt_seconds(v)
                    } else {
                        format!("{v:.1}")
                    }
                };
                let _ = writeln!(
                    out,
                    "{name}{} p50≈{} p90≈{} p99≈{} (n={})",
                    render_labels(labels),
                    fmt(histogram.quantile(0.50)),
                    fmt(histogram.quantile(0.90)),
                    fmt(histogram.quantile(0.99)),
                    histogram.count(),
                );
            }
        }
        out
    }
}

/// `{k="v",…}` with Prometheus label-value escaping; empty for no labels.
fn render_labels(labels: &LabelSet) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Prometheus label-value escaping: backslash, double quote, newline.
fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Prometheus HELP escaping: backslash and newline (quotes are fine).
fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// `f64` in the shortest round-trippable decimal form Rust offers —
/// Prometheus parsers accept plain decimal and scientific notation.
fn format_f64(v: f64) -> String {
    format!("{v}")
}

/// Scales a duration in seconds to ns / µs / ms / s for human output.
pub fn fmt_seconds(seconds: f64) -> String {
    if seconds == 0.0 {
        "0s".to_string()
    } else if seconds < 1e-6 {
        format!("{:.0}ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.0}µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2}ms", seconds * 1e3)
    } else {
        format!("{seconds:.3}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics_and_labels() {
        let reg = Registry::new();
        let plain = reg.counter("hits_total", "Hits.");
        plain.inc();
        plain.inc_by(4);
        assert_eq!(plain.get(), 5);
        // same name + same labels (any order) → the same series
        let a = reg.counter_with("by_kind_total", "By kind.", &[("a", "1"), ("b", "2")]);
        let b = reg.counter_with("by_kind_total", "By kind.", &[("b", "2"), ("a", "1")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // different labels → a different series
        let c = reg.counter_with("by_kind_total", "By kind.", &[("a", "other")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn concurrent_counter_increments_from_multiple_threads() {
        let reg = Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    let counter = reg.counter("racy_total", "Contended counter.");
                    for _ in 0..10_000 {
                        counter.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            reg.counter("racy_total", "Contended counter.").get(),
            80_000
        );
    }

    #[test]
    fn gauge_set_and_add() {
        let reg = Registry::new();
        let g = reg.gauge("depth", "Depth.");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive() {
        // Prometheus semantics: a bucket counts v <= bound.
        let reg = Registry::new();
        let h = reg.histogram("h", "Edges.", &[1.0, 2.0, 4.0]);
        h.observe(1.0); // exactly on a bound → that bucket
        h.observe(1.0000001); // just over → next bucket
        h.observe(4.0); // top finite bound
        h.observe(99.0); // overflow → +Inf only
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 105.0000001).abs() < 1e-6);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.len(), 4);
        assert_eq!((buckets[0].0, buckets[0].1), (1.0, 1));
        assert_eq!((buckets[1].0, buckets[1].1), (2.0, 2));
        assert_eq!((buckets[2].0, buckets[2].1), (4.0, 3));
        assert!(buckets[3].0.is_infinite());
        assert_eq!(buckets[3].1, 4, "+Inf bucket equals total count");
    }

    #[test]
    fn concurrent_histogram_observations() {
        let reg = Arc::new(Registry::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    let h = reg.histogram("conc", "Concurrent.", &[10.0]);
                    for _ in 0..5_000 {
                        h.observe(t as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let h = reg.histogram("conc", "Concurrent.", &[10.0]);
        assert_eq!(h.count(), 20_000);
        // sum = 5000 * (0 + 1 + 2 + 3); f64 CAS additions of small
        // integers are exact
        assert_eq!(h.sum(), 30_000.0);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("twice", "First as counter.");
        reg.gauge("twice", "Then as gauge.");
    }

    #[test]
    fn prometheus_output_escaping() {
        let reg = Registry::new();
        reg.counter_with(
            "esc_total",
            "Help with \\ and\nnewline.",
            &[("path", "a\"b\\c\nd")],
        )
        .inc();
        let out = reg.render_prometheus();
        assert!(
            out.contains(r#"esc_total{path="a\"b\\c\nd"} 1"#),
            "label value must escape quote, backslash, newline:\n{out}"
        );
        assert!(
            out.contains("# HELP esc_total Help with \\\\ and\\nnewline."),
            "help must escape backslash and newline:\n{out}"
        );
        assert!(out.contains("# TYPE esc_total counter"), "{out}");
    }

    #[test]
    fn prometheus_escaping_survives_hostile_label_values() {
        // Order of operations matters: backslash must be escaped first,
        // or the backslashes introduced by the quote/newline escapes get
        // double-escaped. These values are chosen to catch that.
        let reg = Registry::new();
        for (i, (value, expected)) in [
            // a value that is nothing but a newline
            ("\n", r"\n"),
            // trailing backslash — must not eat the closing quote
            ("end\\", r"end\\"),
            // literal backslash-n sequence must stay distinguishable
            // from a real newline: \ + n → \\ + n, not \n
            ("a\\nb", r"a\\nb"),
            // quote + backslash + newline stacked together
            ("\"\\\n", r#"\"\\\n"#),
            // escape-order trap: backslash followed by a real quote
            ("\\\"", r#"\\\""#),
        ]
        .iter()
        .enumerate()
        {
            let name = format!("hostile_{i}_total");
            reg.counter_with(&name, "Hostile.", &[("v", value)]).inc();
            let out = reg.render_prometheus();
            // the sample must render as exactly this complete line — a
            // raw newline or eaten quote would split or corrupt it
            let want = format!("{name}{{v=\"{expected}\"}} 1");
            assert!(
                out.lines().any(|l| l == want),
                "for {value:?} wanted line {want:?} in:\n{out}"
            );
        }
    }

    #[test]
    fn prometheus_help_escaping_hostile_values() {
        // HELP text escapes backslash and newline only — double quotes
        // are legal there and must pass through raw.
        let reg = Registry::new();
        reg.counter("h1_total", "Say \"hi\" with\na \\ backslash.")
            .inc();
        let out = reg.render_prometheus();
        assert!(
            out.contains("# HELP h1_total Say \"hi\" with\\na \\\\ backslash."),
            "{out}"
        );
        assert_eq!(
            out.lines()
                .filter(|l| l.starts_with("# HELP h1_total"))
                .count(),
            1,
            "help must render as exactly one line:\n{out}"
        );
    }

    #[test]
    fn quantile_estimates_interpolate_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("q", "Q.", &[1.0, 2.0, 4.0]);
        assert_eq!(h.quantile(0.5), 0.0, "empty histogram → 0");
        // 10 observations in (1, 2]: all quantiles land in that bucket
        for _ in 0..10 {
            h.observe(1.5);
        }
        let p50 = h.quantile(0.5);
        assert!((1.0..=2.0).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 <= 2.0 && p99 >= p50, "p99={p99}");
        // an overflow observation lives in +Inf → clamps to top bound
        h.observe(100.0);
        assert_eq!(h.quantile(1.0), 4.0, "+Inf clamps to largest finite bound");
    }

    #[test]
    fn render_quantiles_lists_active_histograms_only() {
        let reg = Registry::new();
        reg.counter("not_a_histogram_total", "C.").inc();
        reg.histogram("empty_seconds", "Never observed.", &[0.5]);
        assert_eq!(reg.render_quantiles(), "", "nothing to estimate yet");
        reg.histogram_with("lat_seconds", "L.", &[("op", "x")], &[0.001, 0.01])
            .observe(0.005);
        let out = reg.render_quantiles();
        assert!(out.contains("lat_seconds{op=\"x\"} p50≈"), "{out}");
        assert!(out.contains("(n=1)"), "{out}");
        assert!(!out.contains("empty_seconds"), "{out}");
        assert!(!out.contains("not_a_histogram"), "{out}");
    }

    #[test]
    fn prometheus_histogram_rendering() {
        let reg = Registry::new();
        let h = reg.histogram_with("lat_seconds", "Latency.", &[("op", "get")], &[0.5, 1.0]);
        h.observe(0.25);
        h.observe(0.75);
        h.observe(2.0);
        let out = reg.render_prometheus();
        for line in [
            "# TYPE lat_seconds histogram",
            r#"lat_seconds_bucket{op="get",le="0.5"} 1"#,
            r#"lat_seconds_bucket{op="get",le="1"} 2"#,
            r#"lat_seconds_bucket{op="get",le="+Inf"} 3"#,
            r#"lat_seconds_sum{op="get"} 3"#,
            r#"lat_seconds_count{op="get"} 3"#,
        ] {
            assert!(out.contains(line), "missing {line:?} in:\n{out}");
        }
    }

    #[test]
    fn text_report_renders_all_kinds() {
        let reg = Registry::new();
        reg.counter("c_total", "C.").inc_by(3);
        reg.gauge_with("g", "G.", &[("x", "y")]).set(-4);
        reg.histogram("t_seconds", "T.", crate::DURATION_BUCKETS)
            .observe(0.002);
        let out = reg.render_text();
        assert!(out.contains("counter   c_total = 3"), "{out}");
        assert!(out.contains(r#"gauge     g{x="y"} = -4"#), "{out}");
        assert!(out.contains("histogram t_seconds count=1"), "{out}");
        assert!(out.contains("mean=2.00ms"), "{out}");
        reg.reset();
        assert!(reg.render_text().contains("(none recorded)"));
    }

    #[test]
    fn fmt_seconds_scales() {
        assert_eq!(fmt_seconds(0.0), "0s");
        assert_eq!(fmt_seconds(2.5e-7), "250ns");
        assert_eq!(fmt_seconds(1.5e-5), "15µs");
        assert_eq!(fmt_seconds(0.0035), "3.50ms");
        assert_eq!(fmt_seconds(2.0), "2.000s");
    }
}
