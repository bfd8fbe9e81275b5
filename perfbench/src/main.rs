//! Command-line entry point; see the crate documentation for the
//! workloads and metrics.

use dquag_perfbench::{run, Options, Workload};
use std::process::ExitCode;
use std::time::Duration;

/// A run that has not finished by then is stuck; fail it loudly instead of
/// hanging past the caller's time limit.
const WATCHDOG: Duration = Duration::from_secs(175);

const USAGE: &str = "usage: dquag-perfbench --workload <backfill|refit> --seed <n> \
                     --seconds <s> --trace <0|1> [--smoke] [--tamper]";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut tamper) = (false, false);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--smoke" => smoke = true,
            "--tamper" => tamper = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let missing = |name: &str| format!("{name} is required");
    let mut options = Options::new(
        workload.ok_or_else(|| missing("--workload"))?,
        seed.ok_or_else(|| missing("--seed"))?,
        seconds.ok_or_else(|| missing("--seconds"))?,
        trace.ok_or_else(|| missing("--trace"))?,
    );
    options.smoke = smoke;
    options.tamper = tamper;
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    match run(&options) {
        Ok(report) => {
            for line in report.summary(options.trace) {
                println!("{line}");
            }
            println!("{}", report.json_line(options.trace));
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}
