//! DS-GL benchmark: one command runs one named workload, checks every
//! output, and prints the result as the last line of standard output.
//!
//! ```text
//! dsgl-perfbench --workload <serve_hot|batch_forecast|large_graph>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics and writes a Chrome trace under `perfbench/out/`.
//! See `perfbench/README.md`.

mod batch_forecast;
mod large_graph;
mod layers;
mod models;
mod serve_hot;
mod truth;
mod util;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["serve_hot", "batch_forecast", "large_graph"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dsgl-perfbench: {e}");
            eprintln!(
                "usage: dsgl-perfbench --workload <serve_hot|batch_forecast|large_graph> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    eprintln!(
        "dsgl-perfbench: workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        dsgl_core::Threading::Auto.resolved_threads()
    );
    let (tally, metrics) = if args.trace {
        layers::run(&args.workload, args.seed, args.seconds)
    } else {
        match args.workload.as_str() {
            "serve_hot" => serve_hot::run(args.seed, args.seconds),
            "batch_forecast" => batch_forecast::run(args.seed, args.seconds),
            _ => large_graph::run(args.seed, args.seconds),
        }
    };
    tally.emit(&metrics);
}
