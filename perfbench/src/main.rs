//! treesim benchmark: generates a workload from a seed, drives the public
//! API of the library crates from one closed-loop client on one thread,
//! checks every answer, and prints the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics of a replayed, traced run (`--trace 1`).
//!
//! ```text
//! perfbench --workload <synth-search|dblp-dedup> --seed <n> --seconds <s> --trace <0|1>
//!           [--spans <path>]
//! ```
//!
//! `--spans` writes the traced run's spans to `path` as JSON lines.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod data;
mod replay;
mod run;
mod stats;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// Refuses configurations whose timings would not be comparable.
fn guard() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("built with debug assertions; build with --release".into());
    }
    if let Some((name, _)) = std::env::vars().find(|(name, _)| name.starts_with("TREESIM_TRACE_")) {
        return Err(format!(
            "{name} is set; unset every TREESIM_TRACE_* variable"
        ));
    }
    Ok(())
}

/// A register-only loop: a host-speed reference printed with every run
/// to flag slow hosts. Never used to scale a metric.
fn spin_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 1;
    for i in 0..50_000_000u64 {
        x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    let args = match parse_args().and_then(|args| guard().map(|()| args)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = data::generate_workload(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (known: {})",
            args.workload,
            data::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let spin_before = spin_ms();
    let (metrics, tally) = if args.trace {
        replay::run(&workload, args.spans.as_deref())
    } else {
        run::run(&workload, args.seconds)
    };
    let spin_after = spin_ms();
    println!(
        "# workload={} seed={} trace={} threads=1 spin_ref_ms={spin_before:.1}/{spin_after:.1} \
         dataset={} queries={} arrivals={} knn_k={} range_tau={} join_tau={}",
        workload.name,
        args.seed,
        u8::from(args.trace),
        workload.base.len(),
        workload.queries.len(),
        workload.arrivals.len(),
        workload.knn_k,
        workload.range_tau,
        workload.join_tau,
    );
    stats::print_result(&metrics, &tally);
    ExitCode::SUCCESS
}
