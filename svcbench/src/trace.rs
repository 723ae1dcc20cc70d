//! Spans recorded from the benchmark's own files: one around each
//! direct call into a layer, and one per HTTP exchange in the traced
//! load phase. They stay in memory and are written once, at the end.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` indexes the list the span lives in.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The shared clock every span is measured on.
pub struct Tracer {
    epoch: Instant,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
        }
    }
}

impl Tracer {
    pub fn span(
        &self,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Span {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        Span {
            name,
            req,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        }
    }
}

/// Each span's self time: its duration minus its children's, in µs.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.us();
        }
    }
    out
}

/// Writes spans as tab-separated lines: id, parent id (or -), request,
/// name, start and end in ns since the run's clock started. Lists are
/// concatenated; parent indexes are shifted to stay inside their list.
pub fn write(path: &Path, lists: &[&[Span]]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
    let mut base = 0;
    for list in lists {
        for (i, s) in list.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| (base + p).to_string());
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                base + i,
                s.req,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        base += list.len();
    }
    out.flush()?;
    Ok(base)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            req: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("root", 0, 10_000, None),
            span("child", 1_000, 4_000, Some(0)),
            span("grandchild", 1_500, 2_500, Some(1)),
            span("child", 5_000, 6_000, Some(0)),
        ];
        assert_eq!(self_times_us(&spans), vec![6.0, 2.0, 1.0, 1.0]);
    }
}
