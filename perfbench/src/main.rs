//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <capture|serve|out_of_core> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints one line per metric (name, unit,
//! median, sample count, detail), the host row and the seed, then as the last
//! line one JSON object: `correct`, `attempted`, `failed`, and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Exits 1 when any answer was wrong and 2 on a usage or
//! set-up error.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::report::{Report, END_TO_END, PER_LAYER};
use perfbench::{capture, host, out_of_core, serve, RunConfig};

struct Args {
    workload: String,
    cfg: RunConfig,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            measure: Duration::from_secs_f64(seconds.unwrap_or(10.0)),
            trace: trace.unwrap_or(false),
        },
    })
}

/// Points the pager's temporary segment files at a directory beside this
/// binary, inside the build directory, so the benchmark writes only there.
fn use_local_temp_dir() -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate binary: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("binary has no parent directory")?
        .join("perfbench-tmp");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    // No other thread exists yet.
    std::env::set_var("TMPDIR", &dir);
    Ok(())
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let cfg = &args.cfg;
    match args.workload.as_str() {
        "capture" => capture::run(cfg, capture::FULL, report),
        "serve" => serve::run(cfg, serve::FULL, report),
        "out_of_core" => out_of_core::run(cfg, out_of_core::FULL, report),
        other => Err(format!(
            "unknown workload `{other}` (capture, serve, out_of_core)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = use_local_temp_dir() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let host = host::Host::probe(Path::new("."));
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.cfg.seed,
        args.cfg.measure.as_secs_f64(),
        u8::from(args.cfg.trace)
    );
    println!("{}", host.line());

    let mut report = Report::default();
    if let Err(e) = run(&args, &mut report) {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::from(2);
    }
    report.set(
        "peak_rss_mb",
        "MiB",
        host::peak_rss_mb().unwrap_or(0.0),
        1,
        "VmHWM",
    );
    let fail_rate = report.failed as f64 / report.attempted.max(1) as f64;
    report.set(
        "fail_rate",
        "ratio",
        fail_rate,
        report.attempted as usize,
        format!("{} of {} failed", report.failed, report.attempted),
    );

    println!(
        "{:<40} {:>6} {:>14} {:>8}  detail",
        "metric", "unit", "median", "n"
    );
    for m in report.metrics() {
        println!(
            "{:<40} {:>6} {:>14.6} {:>8}  {}",
            m.name, m.unit, m.value, m.n, m.detail
        );
    }
    for why in &report.failures {
        eprintln!("perfbench: FAILED: {why}");
    }
    let wanted = if args.cfg.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    match report.json_line(wanted, args.cfg.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if report.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
