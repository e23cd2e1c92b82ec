//! Quantiles, generator lateness, and spans with self-time.

use std::time::{Duration, Instant};

/// Nearest-rank quantile of ascending `sorted` (0 for no samples).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (0 for none).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// The median over `windows` consecutive, equal chunks of `values` of
/// each chunk's `q`-quantile: a burst that spoils a minority of the
/// chunks does not move it.
pub fn windowed_quantile(values: &[f64], windows: usize, q: f64) -> f64 {
    let chunk = values.len().div_ceil(windows.max(1)).max(1);
    median(
        values
            .chunks(chunk)
            .map(|c| quantile(&sorted(c.iter().copied()), q)),
    )
}

/// Events per second: the median over `windows` equal windows of
/// `[0, until)` of each window's count of `times` over its width.
pub fn windowed_rate(times: &[Duration], until: Duration, windows: u32) -> f64 {
    let width = until.as_secs_f64() / f64::from(windows.max(1));
    let mut counts = vec![0.0; windows.max(1) as usize];
    for t in times {
        if let Some(c) = counts.get_mut((t.as_secs_f64() / width) as usize) {
            *c += 1.0;
        }
    }
    median(counts.into_iter().map(|c| c / width))
}

/// How late the generator sent each request, in milliseconds: actual
/// send time minus scheduled time, never negative.
pub fn lateness_ms(due_and_sent: impl IntoIterator<Item = (Duration, Duration)>) -> Vec<f64> {
    sorted(
        due_and_sent
            .into_iter()
            .map(|(due, sent)| sent.saturating_sub(due).as_secs_f64() * 1e3),
    )
}

/// One timed call at a layer boundary.
#[derive(Debug)]
pub struct Span {
    /// Request or probe step the span belongs to.
    pub req: u64,
    /// Layer (crate or module) that did the work.
    pub layer: &'static str,
    /// Function or stage.
    pub name: &'static str,
    /// Offset from the recorder's start.
    pub start: Duration,
    /// Offset from the recorder's start.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Spans held in memory until the run writes them out.
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose offsets count from now.
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as span `layer.name` under `parent`; returns its result
    /// and the span's index.
    pub fn time<R>(
        &mut self,
        req: u64,
        layer: &'static str,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let start = self.t0.elapsed();
        let out = f();
        let end = self.t0.elapsed();
        (out, self.push(req, layer, name, start, end, parent))
    }

    /// Records a span measured elsewhere.
    pub fn push(
        &mut self,
        req: u64,
        layer: &'static str,
        name: &'static str,
        start: Duration,
        end: Duration,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            req,
            layer,
            name,
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// The span at `idx`.
    pub fn get(&self, idx: usize) -> &Span {
        &self.spans[idx]
    }

    /// Duration of span `idx` minus the part of it its children cover
    /// (overlapping children are counted once).
    pub fn self_time(&self, idx: usize) -> Duration {
        let s = &self.spans[idx];
        let mut children: Vec<(Duration, Duration)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| (c.start.max(s.start), c.end.min(s.end)))
            .filter(|(a, b)| a < b)
            .collect();
        children.sort();
        let mut covered = Duration::ZERO;
        let mut reach = s.start;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        (s.end - s.start).saturating_sub(covered)
    }

    /// Self-times in seconds of every span called `layer.name`, sorted.
    pub fn self_times(&self, layer: &str, name: &str) -> Vec<f64> {
        sorted(
            (0..self.spans.len())
                .filter(|&i| self.spans[i].layer == layer && self.spans[i].name == name)
                .map(|i| self.self_time(i).as_secs_f64()),
        )
    }

    /// The spans as tab-separated lines: req, layer, name, start µs, end
    /// µs, parent index (-1 for none).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("req\tlayer\tname\tstart_us\tend_us\tparent\n");
        for s in &self.spans {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\n",
                s.req,
                s.layer,
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                s.parent.map_or(-1, |p| p as i64)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn windowed_quantile_ignores_a_spoilt_minority_of_windows() {
        // Five windows of 100; the fourth is slowed tenfold.
        let mut v: Vec<f64> = (0..500).map(|i| f64::from(i % 100 + 1)).collect();
        v[300..400].iter_mut().for_each(|x| *x *= 10.0);
        assert_eq!(windowed_quantile(&v, 5, 0.5), 50.0);
        assert_eq!(windowed_quantile(&v, 5, 0.99), 99.0);
        assert_eq!(windowed_quantile(&v, 1, 0.99), 950.0);
        // Uneven lengths: the last chunk is shorter, never empty.
        assert_eq!(windowed_quantile(&[1.0, 2.0, 3.0], 2, 1.0), 2.0);
        assert_eq!(windowed_quantile(&[], 3, 0.5), 0.0);
    }

    #[test]
    fn windowed_rate_takes_the_median_window() {
        // 100 events per 100 ms window, except a stalled window with 10;
        // an event at `until` lies outside every window.
        let times: Vec<Duration> = (0..10u64)
            .flat_map(|w| {
                let n = if w == 2 { 10 } else { 100 };
                (0..n).map(move |k| Duration::from_micros(w * 100_000 + k * 900))
            })
            .chain([Duration::from_secs(1)])
            .collect();
        assert_eq!(windowed_rate(&times, Duration::from_secs(1), 10), 1000.0);
        assert_eq!(windowed_rate(&times, Duration::from_secs(1), 1), 910.0);
    }

    #[test]
    fn lateness_counts_only_late_sends() {
        let late = lateness_ms([
            (ms(10), ms(10)),
            (ms(20), ms(23)),
            (ms(30), ms(29)),
            (ms(40), ms(41)),
        ]);
        assert_eq!(late, vec![0.0, 0.0, 1.0, 3.0]);
        assert_eq!(quantile(&late, 0.99), 3.0);
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let mut s = Spans::new();
        let root = s.push(1, "core", "run", ms(0), ms(100), None);
        s.push(1, "core", "a", ms(10), ms(40), Some(root));
        s.push(1, "core", "b", ms(30), ms(60), Some(root));
        // Clipped to the parent: only 90..100 counts.
        s.push(1, "core", "c", ms(90), ms(130), Some(root));
        let grandchild = s.push(1, "core", "d", ms(0), ms(50), Some(1));
        assert_eq!(s.self_time(root), ms(40));
        assert_eq!(s.self_time(1), ms(0));
        assert_eq!(s.self_time(grandchild), ms(50));
        assert_eq!(s.self_times("core", "run"), vec![0.04]);
        assert_eq!(s.to_tsv().lines().count(), 6);
    }
}
