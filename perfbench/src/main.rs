//! Command line: `aide-perfbench --workload <browse|archive|sweep>
//! --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints notes, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when an output was
//! wrong (after printing the result) and 2 when it cannot run.

use aide_perfbench::{run, stats, Scale, Settings, Workload, UNATTRIBUTED_TOLERANCE};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: aide-perfbench --workload <browse|archive|sweep> --seed <n> \
                     --seconds <s> --trace <0|1> [--work-dir <dir>]";

fn parse(args: &[String]) -> Result<Settings, String> {
    let mut s = Settings {
        workload: Workload::Browse,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        work_dir: PathBuf::from(".perfbench"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => s.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                s.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|v| *v > 0.0 && v.is_finite())
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                s.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                }
            }
            "--work-dir" => s.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    s.workload = workload.ok_or("--workload is required")?;
    Ok(s)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let settings = match parse(&args) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&settings) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("aide-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = settings.workload;
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name(),
        settings.seed,
        settings.seconds,
        u8::from(settings.trace)
    );
    for note in &out.notes {
        println!("{note}");
    }
    let error_rate = stats::ratio(out.failed as f64, out.attempted as f64);
    println!(
        "error_rate {error_rate} ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    let mut correct = out.failed == 0 && out.attempted > 0;
    if settings.trace {
        let share = out.metrics.get("trace.unattributed_share").unwrap_or(1.0);
        let tol = UNATTRIBUTED_TOLERANCE;
        let ok = share <= tol;
        println!(
            "trace.unattributed_share {share:.4} (tolerance {tol}): {}",
            if ok { "ok" } else { "OUT OF TOLERANCE" }
        );
        correct &= ok;
    }
    for (name, unit) in out.metrics.names().iter().map(|n| (n, out.metrics.unit(n))) {
        println!(
            "  {name} = {} {}",
            out.metrics.get(name).unwrap_or(0.0),
            unit.unwrap_or("")
        );
    }
    for e in &out.errors {
        eprintln!("FAILED CHECK: {e}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("aide-perfbench: outputs were wrong; see FAILED CHECK lines");
        ExitCode::from(1)
    }
}
