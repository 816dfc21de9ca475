//! The charm-rs benchmark: four workloads (`storm`, `apps`, `observe`,
//! `figs`), a handful of end-to-end metrics every workload reports, and a
//! per-layer ledger measured from outside — by timing calls into the
//! layers' public functions, by differencing public `RuntimeBuilder`
//! toggles, and by reading `RunSummary` counters. See README.md.
//!
//! ```text
//! charm-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, result line last
//! charm-benchmark [--seed N] [--trace] [--smoke]                  every workload, each in its own process
//! charm-benchmark --check-repeat                                  two full sets, compared against the bounds
//! ```

mod apps;
mod figs;
mod harness;
mod json;
mod metrics;
mod observe;
mod patterns;
mod probes;
mod stats;
mod storm;

use harness::{Args, HostProbe, Ledger, Outcome};
use json::Json;
use metrics::{Home, MetricDef, Workload, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;

/// Seed used when none is given on the command line.
const DEFAULT_SEED: u64 = 20_140_916;

struct Cli {
    args: Args,
    workload: Option<Workload>,
    check_repeat: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload storm|apps|observe|figs] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--check-repeat]"
    );
    std::process::exit(2);
}

fn parse_cli(argv: &[String]) -> Cli {
    let mut cli = Cli {
        args: Args {
            seed: DEFAULT_SEED,
            seconds: metrics::RUN_SECONDS as f64,
            trace: false,
            smoke: false,
            bin_dir: PathBuf::from("target/release"),
            root: PathBuf::from("."),
        },
        workload: None,
        check_repeat: false,
    };
    let mut seconds_given = false;
    let mut i = 0;
    let value = |i: &mut usize| -> &String {
        *i += 1;
        argv.get(*i).unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                cli.workload = Some(Workload::parse(value(&mut i)).unwrap_or_else(|| usage()))
            }
            "--seed" => cli.args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                cli.args.seconds = value(&mut i)
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .unwrap_or_else(|| usage());
                seconds_given = true;
            }
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some("0") => {
                    cli.args.trace = false;
                    i += 1;
                }
                Some("1") => {
                    cli.args.trace = true;
                    i += 1;
                }
                _ => cli.args.trace = true,
            },
            "--smoke" => cli.args.smoke = true,
            "--check-repeat" => cli.check_repeat = true,
            "--root" => cli.args.root = PathBuf::from(value(&mut i)),
            "--bin-dir" => cli.args.bin_dir = PathBuf::from(value(&mut i)),
            _ => usage(),
        }
        i += 1;
    }
    if cli.args.smoke && !seconds_given {
        cli.args.seconds = 1.0;
    }
    cli
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--emit-benchmark-json") => {
            print!("{}", metrics::benchmark_json_pretty());
            return ExitCode::SUCCESS;
        }
        Some("--list-figs") => {
            println!("{}", metrics::figs().collect::<Vec<_>>().join(" "));
            return ExitCode::SUCCESS;
        }
        Some("--child-scale") => {
            let [pes, seed, dir, sinks] = &argv[1..] else {
                usage()
            };
            observe::scale_child(
                pes.parse().unwrap_or_else(|_| usage()),
                seed.parse().unwrap_or_else(|_| usage()),
                std::path::Path::new(dir),
                sinks == "1",
            );
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let cli = parse_cli(&argv);
    let ok = if cli.check_repeat {
        check_repeat(&cli.args)
    } else if let Some(w) = cli.workload {
        // A failed check is a number in the result line, not an exit code.
        run_workload(w, &cli.args);
        true
    } else {
        run_all(&cli.args).is_some_and(|results| results.iter().all(|r| r.correct))
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// one workload, in this process

fn run_workload(w: Workload, args: &Args) {
    println!(
        "== {} — seed {}, {} s, {}{}",
        w.name(),
        args.seed,
        args.seconds,
        if args.trace {
            "traced (per-layer metrics)"
        } else {
            "untraced (end-to-end metrics)"
        },
        if args.smoke { ", smoke sizes" } else { "" }
    );
    let host = HostProbe::start();
    let mut l = Ledger::default();
    let _ = std::fs::create_dir_all(args.out_dir());
    if w == Workload::Figs {
        // No repetition loop toggles spans there; each figure is one span.
        harness::spans_enable(args.trace);
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match w {
        Workload::Storm => storm::run(args, &mut l),
        Workload::Apps => apps::run(args, &mut l),
        Workload::Observe => observe::run(args, &mut l),
        Workload::Figs => figs::run(args, &mut l),
    }));
    harness::spans_enable(false);
    l.check(outcome.is_ok(), || {
        format!("{}: the workload panicked outside a repetition", w.name())
    });
    let outcome = outcome.unwrap_or(Outcome {
        arms: Vec::new(),
        child_peak_rss: 0,
    });

    // End-to-end: what a user of the simulator sees.
    let own_rss = charm_machine::peak_rss_bytes().unwrap_or(0);
    let rates: Vec<f64> = outcome.arms.iter().map(|a| a.work_per_s).collect();
    l.set("setup_s", outcome.arms.iter().map(|a| a.setup_s).sum());
    l.set("wall_s", outcome.arms.iter().map(|a| a.total_s).sum());
    l.set("work_per_s", stats::geomean(&rates));
    l.set("peak_rss_bytes", own_rss.max(outcome.child_peak_rss) as f64);
    for m in metrics::end_to_end() {
        l.check(l.get(&m.name) > 0.0, || {
            format!("end-to-end metric {} is not positive", m.name)
        });
    }
    host.finish(&mut l);
    l.set("bench.reps", l.reps as f64);

    let defs = if args.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    if args.trace {
        write_spans(w, args, &mut l);
        for m in defs.iter().filter(|m| m.home == Home::Only(w)) {
            l.check(l.metrics.contains_key(&m.name), || {
                format!("per-layer metric {} was not measured", m.name)
            });
        }
    }
    l.set(
        "bench.failed_share",
        harness::ratio(l.failed as f64, l.attempted as f64),
    );

    println!(
        "  -- {} metrics --",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    let mut out = Vec::new();
    for m in &defs {
        let measured_here = m.measured_in(w);
        let v = if measured_here { l.get(&m.name) } else { 0.0 };
        if measured_here {
            println!(
                "  {:<44} {:>18} {:<6} {}",
                m.name,
                human(v),
                m.unit,
                kind_note(m)
            );
        }
        out.push((
            m.name.as_str(),
            Json::obj(vec![
                ("value", Json::Num(v)),
                ("unit", Json::Str(m.unit.into())),
            ]),
        ));
    }
    println!(
        "  host: {} cores, load {:.2}, steal {:.2} %; {} checks, {} failed",
        l.get("host.cores"),
        l.get("host.load_avg"),
        100.0 * l.get("host.steal_share"),
        l.attempted,
        l.failed
    );
    let line = Json::obj(vec![
        ("correct", Json::Bool(l.failed == 0)),
        ("attempted", Json::Int(l.attempted.max(1) as i64)),
        ("failed", Json::Int(l.failed as i64)),
        ("metrics", Json::obj(out)),
    ]);
    println!("{}", line.render());
}

fn human(v: f64) -> String {
    if v == 0.0 || (1e-3..1e7).contains(&v.abs()) {
        format!("{v:.6}")
    } else {
        format!("{v:.6e}")
    }
}

fn kind_note(m: &MetricDef) -> &'static str {
    match m.kind {
        metrics::Kind::Host => "host",
        metrics::Kind::Sim => "simulated, exact under a seed",
        metrics::Kind::Count => "exact under a seed",
        metrics::Kind::Computed => "computed",
        metrics::Kind::Bytes => "host memory",
    }
}

/// Write the span file and print self time per span name.
fn write_spans(w: Workload, args: &Args, l: &mut Ledger) {
    let spans = harness::spans_take();
    let path = args.out_dir().join(format!("trace-{}.json", w.name()));
    let written = std::fs::write(&path, harness::spans_json(w.name(), &spans).render() + "\n");
    l.check(written.is_ok(), || {
        format!("cannot write {}", path.display())
    });
    println!(
        "  -- self time per span ({} spans -> {}) --",
        spans.len(),
        path.display()
    );
    println!(
        "  {:<28} {:>7} {:>14} {:>14}",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, calls, total, own) in harness::self_times(&spans) {
        println!(
            "  {:<28} {:>7} {:>14.3} {:>14.3}",
            name,
            calls,
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
}

// ---------------------------------------------------------------------------
// every workload, each in its own process

struct ChildResult {
    workload: Workload,
    traced: bool,
    correct: bool,
    metrics: Vec<(String, f64)>,
}

fn spawn_workload(w: Workload, args: &Args, traced: bool) -> Option<ChildResult> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "--workload",
        w.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
    ])
    .args(["--trace", if traced { "1" } else { "0" }])
    .arg("--root")
    .arg(&args.root)
    .arg("--bin-dir")
    .arg(&args.bin_dir);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.stderr(std::process::Stdio::inherit()).output().ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (body, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{body}");
    let j = Json::parse(last).ok()?;
    let Some(Json::Obj(pairs)) = j.get("metrics") else {
        return None;
    };
    Some(ChildResult {
        workload: w,
        traced,
        correct: out.status.success() && j.get("correct") == Some(&Json::Bool(true)),
        metrics: pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// Run the four workloads (and, with `--trace`, each one's traced run).
fn run_all(args: &Args) -> Option<Vec<ChildResult>> {
    let mut results = Vec::new();
    for w in WORKLOADS {
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            let Some(r) = spawn_workload(w, args, traced) else {
                eprintln!("{}: the workload process printed no result line", w.name());
                return None;
            };
            if !r.correct {
                eprintln!("{}: failed checks (see CHECK FAILED above)", w.name());
            }
            results.push(r);
        }
    }
    Some(results)
}

/// Two full sets of the same code. Every end-to-end metric must agree
/// within its bound, and every exact per-layer metric bit for bit.
fn check_repeat(args: &Args) -> bool {
    let traced = Args {
        trace: true,
        ..args.clone()
    };
    let (Some(a), Some(b)) = (run_all(&traced), run_all(&traced)) else {
        return false;
    };
    let defs: Vec<MetricDef> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .collect();
    let mut ok = a.iter().chain(&b).all(|r| r.correct);
    println!("== check-repeat: second set against the first");
    for (ra, rb) in a.iter().zip(&b) {
        for ((name, va), (_, vb)) in ra.metrics.iter().zip(&rb.metrics) {
            let def = defs
                .iter()
                .find(|d| &d.name == name)
                .expect("children print registry names");
            if !def.measured_in(ra.workload) {
                continue;
            }
            let verdict = if let Some(bound) = def.bound {
                let worse = if def.higher {
                    (va - vb) / va
                } else {
                    (vb - va) / va
                };
                let fine = worse.abs() <= bound;
                println!(
                    "  {:<8} {:<16} {:>16} -> {:>16}  {:+6.2} % (bound {:.0} %) {}",
                    ra.workload.name(),
                    name,
                    human(*va),
                    human(*vb),
                    100.0 * worse,
                    100.0 * bound,
                    if fine { "ok" } else { "DISAGREES" }
                );
                fine
            } else if def.exact() && ra.traced {
                let fine = va.to_bits() == vb.to_bits();
                if !fine {
                    println!(
                        "  {:<8} {:<40} {} != {}  NOT EXACT",
                        ra.workload.name(),
                        name,
                        va,
                        vb
                    );
                }
                fine
            } else {
                true
            };
            ok &= verdict;
        }
    }
    println!(
        "check-repeat: {}",
        if ok {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    ok
}
