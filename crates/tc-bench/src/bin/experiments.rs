//! Experiment CLI: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p tc-bench --bin experiments -- <id> [--small]
//! ```
//!
//! `<id>` ∈ {table2, table3, table5, table6, fig7, fig8, fig9, fig10,
//! fig11, fig12, fig13, fig14, fig15, fig16, ablation, algorithms,
//! trust-grid, serve-bench, stream-bench, cpu-bench, all}. `--small`
//! substitutes the small dataset suite for a quick smoke run;
//! `BENCH_cpu.json` is only rewritten by full `cpu-bench` runs. Any
//! other flag exits 2 with the usage line.
//!
//! Experiment grids spread their cells over all cores by default, and
//! each cell generates its block traces on its own thread; set
//! `TC_PIPELINE_THREADS=1` for a fully serial harness. Each experiment's
//! end-to-end wall-clock is reported on stderr.

use tc_bench::experiments::*;
use tc_bench::measure::{self, Samples};
use tc_bench::{cpu_bench, serve_bench, stream_bench, ExperimentEnv};
use tc_datasets::Dataset;

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    /// Experiment ids, in the order given.
    ids: Vec<String>,
    small: bool,
}

/// Parses the arguments after the program name. A flag outside the
/// usage line is an error: a typo must never run the full sweep and
/// overwrite a committed BENCH file.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    for arg in args {
        match arg.strip_prefix("--") {
            None => parsed.ids.push(arg.clone()),
            Some("small") => parsed.small = true,
            Some(_) => return Err(format!("unknown flag {arg}")),
        }
    }
    if parsed.ids.is_empty() {
        return Err("no experiment id given".into());
    }
    Ok(parsed)
}

fn usage() -> String {
    format!(
        "usage: experiments <{}|serve-bench|stream-bench|cpu-bench|all> [--small]",
        ALL.join("|")
    )
}

struct Cli {
    env: ExperimentEnv,
    args: Args,
}

impl Cli {
    fn suite_or(&self, full: Vec<Dataset>) -> Vec<Dataset> {
        if self.args.small {
            Dataset::small_suite()
        } else {
            full
        }
    }

    fn run_one(&self, id: &str) -> bool {
        match id {
            "table2" => {
                let rows = table2::run_on(&self.env, &self.suite_or(Dataset::table2_suite()));
                println!("{}", table2::render(&rows));
            }
            "table3" => {
                println!("{}", table3::render(&table3::run(&self.env)));
            }
            "table5" => {
                let rows = table5_6::run_table5(&self.env, &self.suite_or(Dataset::table5_suite()));
                println!(
                    "{}",
                    table5_6::render("Table 5", "Hu's fine-grained implementation", &rows)
                );
            }
            "table6" => {
                let rows = table5_6::run_table6(&self.env, &self.suite_or(Dataset::table5_suite()));
                println!("{}", table5_6::render("Table 6", "TriCore", &rows));
            }
            "fig7" => {
                println!("{}", fig7::render(&fig7::run()));
            }
            "fig8" => {
                println!("{}", fig8_9::render_fig8(&fig8_9::run(&self.env)));
            }
            "fig9" => {
                println!("{}", fig8_9::render_fig9(&fig8_9::run(&self.env)));
            }
            "fig10" => {
                let rows = fig10::run_on(&self.env, &self.suite_or(fig10::default_suite()));
                println!("{}", fig10::render(&rows));
            }
            "fig11" => {
                let rows = fig11::run_on(&self.env, &self.suite_or(Dataset::table2_suite()));
                println!("{}", fig11::render(&rows));
            }
            "fig12" => {
                let rows = fig12_13::run_on(
                    &self.env,
                    &self.suite_or(fig12_13::fig12_suite()),
                    &tc_algos::hu::HuFineGrained::default(),
                );
                println!("{}", fig12_13::render("Figure 12", "Hu's algorithm", &rows));
            }
            "fig13" => {
                let rows = fig12_13::run_on(
                    &self.env,
                    &self.suite_or(fig12_13::fig13_suite()),
                    &tc_algos::bisson::Bisson::default(),
                );
                println!(
                    "{}",
                    fig12_13::render("Figure 13", "Bisson's algorithm", &rows)
                );
            }
            "fig14" => {
                let rows =
                    fig14_15::run_fig14(&self.env, &self.suite_or(fig14_15::default_suite()));
                println!("{}", fig14_15::render_fig14(&rows));
            }
            "fig15" => {
                let rows =
                    fig14_15::run_fig15(&self.env, &self.suite_or(fig14_15::default_suite()));
                println!("{}", fig14_15::render_fig15(&rows));
            }
            "algorithms" => {
                let suite = self.suite_or(vec![
                    Dataset::EmailEnron,
                    Dataset::Gowalla,
                    Dataset::KronLogn18,
                ]);
                println!("{}", algorithms::render(&self.env, &suite));
            }
            "ablation" => {
                let suite = self.suite_or(vec![Dataset::KronLogn18, Dataset::CitPatent]);
                println!("{}", ablation::render(&self.env, &suite));
            }
            "fig16" => {
                let rows = fig16::run_on(&self.env, &self.suite_or(fig16::default_suite()));
                println!("{}", fig16::render(&rows));
            }
            "trust-grid" => {
                let cells =
                    trust_grid::run_on(&self.env, &self.suite_or(trust_grid::default_suite()));
                println!("{}", trust_grid::render(&cells));
            }
            "serve-bench" => {
                let rows = serve_bench::run(self.args.small);
                println!("{}", serve_bench::render(&rows));
                let contended = serve_bench::run_contended(self.args.small);
                println!("{}", serve_bench::render_contended(&contended));
                let json = serve_bench::to_json(&rows, &contended);
                return measure::write("BENCH_service.json", &json, self.args.small);
            }
            "cpu-bench" => {
                let reports = cpu_bench::run(self.args.small);
                println!("{}", cpu_bench::render(&reports));
                let json = cpu_bench::to_json(&reports);
                return measure::write("BENCH_cpu.json", &json, self.args.small);
            }
            "stream-bench" => {
                let reports = stream_bench::run(self.args.small);
                println!("{}", stream_bench::render(&reports));
                let analytics = stream_bench::run_analytics(self.args.small);
                println!("{}", stream_bench::render_analytics(&analytics));
                let json = stream_bench::to_json(&reports, &analytics);
                return measure::write("BENCH_stream.json", &json, self.args.small);
            }
            other => {
                eprintln!("unknown experiment id: {other}");
                return false;
            }
        }
        true
    }

    /// Runs one experiment and reports its end-to-end wall-clock.
    fn run_timed(&self, id: &str) -> bool {
        let mut wall = Samples::default();
        let ok = wall.time(|| self.run_one(id));
        eprintln!("[{id}] harness wall-clock: {:.2}s", wall.mean_us() / 1e6);
        ok
    }
}

const ALL: [&str; 17] = [
    "fig7",
    "fig8",
    "fig9",
    "table3",
    "fig10",
    "fig11",
    "table2",
    "fig12",
    "fig13",
    "table5",
    "table6",
    "fig14",
    "fig15",
    "fig16",
    "ablation",
    "algorithms",
    "trust-grid",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };

    eprintln!("calibrating model parameters against the simulated GPU...");
    let cli = Cli {
        env: ExperimentEnv::new(),
        args,
    };
    eprintln!("lambda = {:.3}", cli.env.params().lambda);

    let mut ok = true;
    if cli.args.ids.iter().any(|id| id == "all") {
        for id in ALL {
            eprintln!("--- running {id} ---");
            ok &= cli.run_timed(id);
        }
    } else {
        for id in &cli.args.ids {
            ok &= cli.run_timed(id);
        }
    }
    if !ok {
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_ids_and_every_flag() {
        let args = parse(&["serve-bench", "--small", "cpu-bench"]).unwrap();
        assert_eq!(
            args,
            Args {
                ids: vec!["serve-bench".into(), "cpu-bench".into()],
                small: true,
            }
        );
    }

    #[test]
    fn rejects_unknown_flags() {
        for flag in [
            "--smal",
            "--small=1",
            "--kernels=merge",
            "--clients",
            "--",
            "--shards=1,2",
            "--clients=4",
        ] {
            assert!(parse(&["fig7", flag]).is_err(), "{flag} accepted");
        }
    }

    #[test]
    fn rejects_a_missing_experiment_id() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--small"]).is_err());
    }
}
