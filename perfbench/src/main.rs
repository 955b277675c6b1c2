//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, one per line, then a JSON
//! result as the last line. Exits non-zero if a reply failed its check.

use nemo_perfbench::workload::{Scale, Workload};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 30.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().map(String::as_str).unwrap_or_default();
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Workload::parse(value());
                workload.is_some()
            }
            "--seed" => value().parse().map(|v| seed = v).is_ok(),
            "--seconds" => value().parse().map(|v| seconds = v).is_ok() && seconds > 0.0,
            "--trace" => {
                let v = value();
                trace = v == "1";
                v == "0" || v == "1"
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };
    let out = match nemo_perfbench::run(workload, &Scale::full(), seed, seconds, trace) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed {seed}, {seconds} s, trace {}",
        workload.name(),
        trace as u8
    );
    for line in &out.notes {
        println!("# {line}");
    }
    for m in &out.metrics {
        println!("{:<30} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for m in &out.reported {
        println!(
            "{:<30} {:>14.4} {} (reported, no bound)",
            m.name, m.value, m.unit
        );
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} is not correct: {} of {} requests failed their check",
            workload.name(),
            out.failed,
            out.attempted
        );
        ExitCode::FAILURE
    }
}
