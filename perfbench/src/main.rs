//! Replay benchmark of the mltc texture-cache simulator: one workload per
//! process.
//!
//! ```text
//! mltc-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <dir>]
//! ```
//!
//! Prints a reference line (wall-clock figures and every check's verdict)
//! and, last, the result line `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics, or with `--trace 1` the per-layer
//! ones. The traced mode also writes `trace.json` (Chrome trace events)
//! and `layers.json` into `--out`. Exits 1 when a check fails, 2 on a
//! usage error.
//!
//! `setup_s` is measured in [`SETUP_SAMPLES`] fresh processes of this
//! program, run one after the other with `--setup-only 1`: process `j`
//! sets up scene `j` of the run (the same scenes a run replays, continued
//! past them), prints `{"setup_s", "setup_wall_s"}` (its own on-CPU time
//! from process start to the end of the set-up, scaled, and the wall time
//! beside it) and exits. A fresh process pays the first touch of every
//! page the set-up allocates, as the workload's own process does; the
//! median over several scenes evens out how much scenes differ.

mod checks;
mod clock;
mod report;
mod spans;
mod workloads;

use clock::Mark;
use mltc_oracle::Json;
use report::median;
use spans::{chrome_trace_json, Tracer};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Ctx, WORKLOADS};

/// Set-up processes per untraced run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 5;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    setup_only: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: mltc_scene::WorkloadParams::quick().seed,
        seconds: 8.0,
        traced: false,
        setup_only: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--setup-only" => {
                args.setup_only = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if args.setup_only && args.traced {
        return Err("--setup-only 1 runs untraced".into());
    }
    Ok(args)
}

/// Runs [`SETUP_SAMPLES`] set-up processes of `args`' workload, one per
/// scene of the run's seed and one at a time, and returns the medians of
/// their scaled on-CPU and wall set-up times.
fn fresh_setups(args: &Args) -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    for j in 0..SETUP_SAMPLES as u64 {
        let seed = workloads::scene_seed(args.seed, j).to_string();
        let out = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed])
            .args(["--setup-only", "1"])
            .output()
            .map_err(|e| format!("set-up process: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let parsed = Json::parse(text.trim())
            .ok()
            .filter(|_| out.status.success());
        let field = |name| parsed.as_ref()?.get(name)?.as_f64();
        match (field("setup_s"), field("setup_wall_s")) {
            (Some(c), Some(w)) => {
                cpu.push(c);
                wall.push(w);
            }
            _ => return Err(format!("set-up process ({}) printed {text:?}", out.status)),
        }
    }
    Ok((median(&cpu), median(&wall)))
}

fn main() -> ExitCode {
    let start = Mark::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: mltc-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <dir>] [--setup-only 0|1]\n{e}");
            return ExitCode::from(2);
        }
    };
    let mut ctx = Ctx::new(
        args.seed,
        args.seconds,
        args.setup_only,
        start.wall(),
        Tracer::new(args.traced, Instant::now(), 0),
    );
    workloads::run(&args.workload, &mut ctx);
    if let Some(e) = ctx.setup {
        println!(
            "{{\"setup_s\": {:?}, \"setup_wall_s\": {:?}}}",
            e.cpu_s, e.wall_s
        );
        return ExitCode::SUCCESS;
    }
    let run = start.elapsed();
    if !args.traced {
        match fresh_setups(&args) {
            Ok((cpu_s, wall_s)) => {
                ctx.report.end_to_end.insert(0, ("setup_s", cpu_s, "s"));
                ctx.report
                    .reference
                    .insert(0, ("setup_wall_s", wall_s, "s"));
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ctx.report.layer("run.cpu_s", run.cpu_s);
    ctx.report.layer("run.wall_s", run.wall_s);

    if args.traced {
        if let Some(dir) = &args.out {
            let layers = ctx.report.result_json(true);
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| {
                    std::fs::write(dir.join("trace.json"), chrome_trace_json(ctx.tr.spans()))
                })
                .and_then(|()| std::fs::write(dir.join("layers.json"), layers + "\n"));
            if let Err(e) = written {
                eprintln!("cannot write the trace into {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", ctx.report.reference_json());
    println!("{}", ctx.report.result_json(args.traced));
    if ctx.report.correct() {
        ExitCode::SUCCESS
    } else {
        for (name, v) in &ctx.report.checks {
            if let Err(e) = v {
                eprintln!("check {name} failed: {e}");
            }
        }
        ExitCode::FAILURE
    }
}
