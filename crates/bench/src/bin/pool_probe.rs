//! Test-only helper for `tests/pool.rs`: a program that calls the pool, so
//! the tests can watch one from outside — exit status, stdout, stderr, pids.
//!
//!   pool_probe <workers> commands            four `sh` children, slowest first
//!   pool_probe <workers> run <binary>        one child, as `all_figs` runs it
//!   pool_probe <workers> waves <log>         two `map` calls, the second fed by the first
//!   pool_probe <workers> <mode> [<pid dir>]  one `map` over six points; modes below

use charm_bench::pool::{Pool, Task};
use std::io::Write as _;
use std::process::Command;
use std::time::Duration;

/// Pid of the process that computed the point, floats, integers.
type Point = (u64, Vec<f64>, Vec<u64>);

fn point(mode: &str, pid_dir: &str, i: u64) -> Point {
    let pid = std::process::id() as u64;
    if !pid_dir.is_empty() {
        std::fs::write(format!("{pid_dir}/{pid}"), "").expect("pid dir");
    }
    match (mode, i) {
        // Claimed first and claimed last are the slow ones.
        ("order", 0 | 5) => std::thread::sleep(Duration::from_millis(200)),
        ("panic", 3) => panic!("boom at three"),
        ("exit", 3) => std::process::exit(7),
        ("abort", 3) => std::process::abort(),
        ("bits", _) => {
            let floats = [
                -0.0,
                f64::from_bits(1),
                f64::MAX,
                f64::MIN_POSITIVE / 2.0,
                f64::NAN,
            ];
            let long: Vec<f64> = (0..10_000).map(|k| (k as f64).sqrt() - 50.0).collect();
            let floats = if i == 4 {
                long
            } else {
                floats[..i as usize].to_vec()
            };
            return (pid, floats, vec![u64::MAX, i]);
        }
        ("nested", _) => {
            let inner = Pool {
                workers: 2,
                budget: u64::MAX,
            };
            let pids = inner.map(&[0, 1, 2], |_| std::process::id() as u64);
            return (pid, Vec::new(), pids.expect("an inline map cannot fail"));
        }
        _ => {}
    }
    (pid, vec![i as f64 / 3.0], vec![i])
}

fn sh(script: String, secs: f64) -> Task {
    let mut command = Command::new("sh");
    command.arg("-c").arg(script);
    Task {
        command,
        secs,
        rss: 0,
    }
}

fn or_die<T>(e: String) -> T {
    eprintln!("{e}");
    std::process::exit(1)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let pool = Pool {
        workers: args[1].parse().expect("workers"),
        budget: u64::MAX,
    };
    let arg = args.get(3).cloned().unwrap_or_default();
    match args[2].as_str() {
        "commands" => {
            let script = |i| {
                format!(
                    "sleep 0.{}; echo out{i}; echo err{i} >&2; exit {}",
                    3 - i,
                    i % 2
                )
            };
            let done = pool.commands((0..4).map(|i| sh(script(i), 0.0)).collect());
            println!("{:?}", done.iter().map(|d| &d.ended).collect::<Vec<_>>());
        }
        "run" => {
            let done = pool.commands(vec![Task {
                command: Command::new(&arg),
                secs: 0.0,
                rss: 0,
            }]);
            std::process::exit(if done[0].ok { 0 } else { 1 });
        }
        "waves" => {
            let first = pool.map(&[1u64, 2, 3], |&i| {
                let mut log = std::fs::File::options()
                    .append(true)
                    .create(true)
                    .open(&arg)
                    .expect("log");
                writeln!(log, "{i}").expect("log");
                i * 10
            });
            let first = first.unwrap_or_else(or_die);
            let second = pool.map(&[0usize, 1, 2, 3], |&j| first[j % 3] + j as u64);
            println!("{first:?} {:?}", second.unwrap_or_else(or_die));
        }
        mode => {
            let points: Vec<u64> = (0..6).collect();
            let out = pool.map(&points, |&i| point(mode, &arg, i));
            // No orphan: every worker that computed a point is gone by now.
            let me = std::process::id().to_string();
            let pids = std::fs::read_dir(&arg)
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| e.file_name());
            let alive =
                pids.filter(|p| *p != *me && std::path::Path::new("/proc").join(p).exists());
            eprintln!("alive after return: {}", alive.count());
            println!("parent {me}");
            for (i, (pid, floats, ints)) in out.unwrap_or_else(or_die).into_iter().enumerate() {
                let bits: Vec<_> = floats
                    .iter()
                    .take(5)
                    .map(|f| format!("{:016x}", f.to_bits()))
                    .collect();
                let fold = floats
                    .iter()
                    .fold(0u64, |h, f| h.rotate_left(5) ^ f.to_bits());
                println!(
                    "point {i}: {} floats {bits:?} fold {fold:016x} ints {ints:?}",
                    floats.len()
                );
                println!("pid {i}: {pid}");
            }
        }
    }
}
