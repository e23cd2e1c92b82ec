//! The one measurement harness: the only module of `tc-bench` that reads
//! the clock, records the environment or writes a `BENCH_*.json` file.
//!
//! [`Samples`] keeps every timing as a [`Duration`] and converts to µs
//! once, so no rep loses its fraction of a microsecond before the mean
//! is taken. [`repeat`] is an untimed warm-up plus timed reps,
//! [`header`] the environment every BENCH file opens with, and [`write()`]
//! the only BENCH writer.

use std::fmt::{Debug, Write as _};
use std::time::{Duration, Instant};
use tc_service::json::{s, u, Json};

/// The timings of one measured quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<Duration>);

impl Samples {
    /// Runs `f` once, records its wall-clock time and returns its value.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.0.push(start.elapsed());
        value
    }

    /// Moves every timing of `other` into `self`.
    pub fn append(&mut self, mut other: Samples) {
        self.0.append(&mut other.0);
    }

    /// Timings recorded.
    pub fn count(&self) -> usize {
        self.0.len()
    }

    /// Mean timing in µs (0 when empty), converted from the exact sum.
    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<Duration>().as_secs_f64() * 1e6 / self.0.len() as f64
    }

    /// Nearest-rank `q`-quantile in whole µs (0 when empty).
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1].as_micros() as u64
    }
}

/// `num / den`, or 0 when `den` is not positive (a time or rate that
/// read zero).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `f` `warmup` times untimed, then `reps` times timed, and returns
/// the first run's value with the timings. Panics if any run returns a
/// different value: what is timed must be deterministic.
pub fn repeat<T: PartialEq + Debug>(
    warmup: usize,
    reps: usize,
    mut f: impl FnMut() -> T,
) -> (T, Samples) {
    let mut samples = Samples::default();
    let mut first = None;
    for run in 0..warmup + reps {
        let value = if run < warmup {
            f()
        } else {
            samples.time(&mut f)
        };
        match &first {
            None => first = Some(value),
            Some(expected) => assert_eq!(&value, expected, "run {run} differs from the first"),
        }
    }
    (first.expect("repeat needs at least one run"), samples)
}

/// The members every BENCH file opens with: the benchmark's name, the
/// cores the run could use, the active SIMD tier and the git revision.
pub fn header(benchmark: &str) -> Vec<(&'static str, Json)> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("benchmark", s(benchmark)),
        ("cores", u(cores as u64)),
        ("simd_tier", s(tc_algos::simd::active_tier())),
        ("revision", s(revision())),
    ]
}

/// The git revision measured: `git describe --always`, plus `-dirty` if
/// a tracked file differs from it, or `"unknown"` if git fails. The
/// BENCH files do not count: they are this harness's output, and a run
/// that writes one must not mark the next run's code dirty.
fn revision() -> String {
    let git = |args: &[&str]| {
        let out = std::process::Command::new("git").args(args).output().ok()?;
        let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
        out.status.success().then_some(text)
    };
    let Some(rev) = git(&["describe", "--always"]).filter(|rev| !rev.is_empty()) else {
        return "unknown".into();
    };
    let bench_files = ":(top,exclude)BENCH_*.json";
    match git(&["status", "--porcelain", "-uno", "--", ":/", bench_files]) {
        Some(changed) if !changed.is_empty() => format!("{rev}-dirty"),
        _ => rev,
    }
}

/// Writes `bench` to `file`. Only full runs do: a `small` smoke run
/// would clobber the committed rows with partial data. Returns false if
/// the file could not be written.
pub fn write(file: &str, bench: &Json, small: bool) -> bool {
    if small {
        eprintln!("partial run: {file} left untouched");
        return true;
    }
    let mut text = String::new();
    layout(&mut text, "", bench, 0, true);
    text.push('\n');
    match std::fs::write(file, text) {
        Ok(()) => {
            eprintln!("wrote {file}");
            true
        }
        Err(e) => {
            eprintln!("could not write {file}: {e}");
            false
        }
    }
}

/// The layout every BENCH file shares. Objects outside an array (the top
/// level and its sections) put one member per line; an array of objects
/// puts one row per line, each row on one line except for an array of
/// rows inside it. A float is rounded by its key: µs (`*_us`) to 2
/// decimals, `wall_s` to 4, ratios and rates to 3.
fn layout(out: &mut String, key: &str, value: &Json, indent: usize, block: bool) {
    let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match value {
        Json::Float(x) if x.is_finite() => {
            let decimals = match key {
                k if k.ends_with("_us") => 2,
                "wall_s" => 4,
                _ => 3,
            };
            let _ = write!(out, "{x:.decimals$}");
            return;
        }
        Json::Obj(members) => (
            '{',
            '}',
            members.iter().map(|(k, v)| (Some(&k[..]), v)).collect(),
        ),
        Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
        scalar => {
            out.push_str(&scalar.to_string_compact());
            return;
        }
    };
    let rows = open == '[' && items.iter().any(|(_, v)| matches!(v, Json::Obj(_)));
    let broken = rows || (block && open == '{');
    let inner = if broken { indent + 2 } else { indent };
    let n = items.len();
    out.push(open);
    for (i, (k, v)) in items.into_iter().enumerate() {
        if broken {
            let _ = write!(out, "{}\n{:inner$}", if i > 0 { "," } else { "" }, "");
        } else if i > 0 {
            out.push_str(", ");
        }
        if let Some(k) = k {
            let _ = write!(out, "{}: ", s(k).to_string_compact());
        }
        layout(out, k.unwrap_or(key), v, inner, block && !rows);
    }
    if broken && n > 0 {
        let _ = write!(out, "\n{:indent$}", "");
    }
    out.push(close);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_service::json::{obj, parse};

    #[test]
    fn mean_keeps_fractions_of_a_microsecond() {
        let samples = Samples([1_500, 2_500].map(Duration::from_nanos).to_vec());
        assert!((samples.mean_us() - 2.0).abs() < 1e-9);
        // What whole-µs accumulation read for the same two timings.
        let truncated: u64 = samples.0.iter().map(|d| d.as_micros() as u64).sum();
        assert_eq!(truncated as f64 / 2.0, 1.5);
        assert_eq!(Samples::default().mean_us(), 0.0);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let samples = Samples((1..=100).map(Duration::from_micros).rev().collect());
        assert_eq!(samples.quantile_us(0.50), 50);
        assert_eq!(samples.quantile_us(0.99), 99);
        assert_eq!(samples.quantile_us(1.0), 100);
        assert_eq!(Samples::default().quantile_us(0.5), 0);
    }

    #[test]
    fn repeat_times_only_the_reps() {
        let mut runs = 0;
        let (value, samples) = repeat(2, 3, || {
            runs += 1;
            7
        });
        assert_eq!((value, runs, samples.count()), (7, 5, 3));
    }

    #[test]
    #[should_panic(expected = "differs from the first")]
    fn repeat_panics_when_a_rep_differs_from_the_warm_up() {
        let mut runs = 0;
        repeat(1, 3, || {
            runs += 1;
            runs.min(2)
        });
    }

    #[test]
    fn written_files_parse_back_one_row_per_line() {
        let row = |batch, mean| obj(vec![("batch", u(batch)), ("mean_us", Json::Float(mean))]);
        let bench = obj(vec![
            ("benchmark", s("probe")),
            (
                "datasets",
                Json::Arr(vec![obj(vec![
                    ("dataset", s("a")),
                    ("speedup", Json::Float(2.25)),
                    ("rows", Json::Arr(vec![row(1, 12.5), row(16, 0.25)])),
                ])]),
            ),
            (
                "section",
                obj(vec![
                    ("spread", Json::Arr(vec![u(3), u(4)])),
                    (
                        "rows",
                        Json::Arr(vec![obj(vec![("wall_s", Json::Float(0.125))])]),
                    ),
                ]),
            ),
        ]);
        let file = std::env::temp_dir().join(format!("tc-measure-{}.json", std::process::id()));
        let path = file.to_str().expect("utf-8 temp path");
        assert!(write(path, &bench, false));
        let text = std::fs::read_to_string(&file).expect("written");
        let _ = std::fs::remove_file(&file);
        assert_eq!(parse(&text).as_ref(), Ok(&bench));
        assert_eq!(
            text,
            "{\n  \"benchmark\": \"probe\",\n  \"datasets\": [\n    \
             {\"dataset\": \"a\", \"speedup\": 2.250, \"rows\": [\n      \
             {\"batch\": 1, \"mean_us\": 12.50},\n      {\"batch\": 16, \"mean_us\": 0.25}\n    \
             ]}\n  ],\n  \"section\": {\n    \"spread\": [3, 4],\n    \"rows\": [\n      \
             {\"wall_s\": 0.1250}\n    ]\n  }\n}\n"
        );
        assert!(
            write(path, &bench, true) && !file.exists(),
            "a small run writes nothing"
        );
    }
}
