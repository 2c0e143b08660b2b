//! `chase-benchmark --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload closed-loop for about `S` seconds, checks every solve,
//! prints a table, writes `.bench_out/<workload>-seed<N>-trace<T>.json`
//! under the working directory, and prints the result as one JSON object
//! on the last line of standard output. Exits nonzero when any solve
//! failed or the arguments are wrong.

use chase_benchmark::report::{result_line, results_json, table};
use chase_benchmark::run::{run, RunConfig};
use chase_benchmark::workload::{Workload, NAMES};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => {
                seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {val}"))?
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(wl) = Workload::by_name(&args.workload) else {
        eprintln!(
            "error: unknown workload {} (one of {})",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: out_dir.clone(),
    };
    let out = run(&wl, &cfg);
    print!("{}", table(wl.name, &out));
    let file = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        wl.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(
        &file,
        results_json(wl.name, args.seed, args.seconds, args.trace, &out),
    ) {
        eprintln!("warning: cannot write {}: {e}", file.display());
    }
    println!("{}", result_line(&out));
    if out.failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
