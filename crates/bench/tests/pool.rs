//! The process pool, watched from outside: `pool_probe` (a test-only binary
//! that calls `Pool::map` / `Pool::commands`) and the real `fig17`, `fig04`
//! and `ft_campaign` binaries are run as child processes, with the pool's
//! one-worker shape (`Pool { workers: 1, .. }`, the in-process path) and
//! its two-worker shape compared byte for byte.

use charm_bench::pool::{Pool, Task};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const PROBE: &str = env!("CARGO_BIN_EXE_pool_probe");

/// A fresh directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("charm-pool-test-{}-{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `exe args` in `cwd`, results under `cwd/results`, output captured.
fn run_in(cwd: &Path, exe: &str, args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(exe);
    cmd.args(args).current_dir(cwd).envs(env.iter().copied());
    for inherited in ["CARGO_MANIFEST_DIR", "CHARM_FIG_SCALE", "RUST_BACKTRACE"] {
        cmd.env_remove(inherited);
    }
    cmd.output().unwrap_or_else(|e| panic!("{exe}: {e}"))
}

fn probe(cwd: &Path, args: &[&str]) -> (bool, String, String) {
    let out = run_in(cwd, PROBE, args, &[]);
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.success(), text(&out.stdout), text(&out.stderr))
}

/// The lines of `text` that start with `prefix`.
fn lines<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    text.lines().filter(|l| l.starts_with(prefix)).collect()
}

#[test]
fn results_and_replayed_output_keep_submission_order() {
    let dir = scratch("order");
    // `map`: the points claimed first and last sleep; results still 0, 1, 2, …
    let (ok, two, _) = probe(&dir, &["2", "order"]);
    let (_, one, _) = probe(&dir, &["1", "order"]);
    assert!(ok);
    assert_eq!(lines(&two, "point"), lines(&one, "point"));
    let starts: Vec<_> = lines(&two, "point")
        .iter()
        .map(|l| l[..8].to_string())
        .collect();
    assert_eq!(
        starts,
        ["point 0:", "point 1:", "point 2:", "point 3:", "point 4:", "point 5:"]
    );
    // Two workers means two other processes did the work.
    let parent = lines(&two, "parent")[0]
        .trim_start_matches("parent ")
        .to_string();
    let mut pids: Vec<_> = lines(&two, "pid")
        .iter()
        .map(|l| l[7..].to_string())
        .collect();
    pids.sort();
    pids.dedup();
    assert!(pids.len() == 2 && !pids.contains(&parent), "{two}");
    // One worker means nobody else did: the one-worker path is `f`, called.
    let parent = lines(&one, "parent")[0]
        .trim_start_matches("parent ")
        .to_string();
    assert!(lines(&one, "pid").iter().all(|l| l[7..] == parent), "{one}");

    // `commands`: child 0 finishes last, yet its output comes first; each
    // child's exit is reported in its own place.
    let (ok, out, err) = probe(&dir, &["2", "commands"]);
    assert!(ok);
    let ended = r#"["exit status: 0", "exit status: 1", "exit status: 0", "exit status: 1"]"#;
    assert_eq!(out, format!("out0\nout1\nout2\nout3\n{ended}\n"));
    assert_eq!(err, "err0\nerr1\nerr2\nerr3\n");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_worker_names_its_point_and_leaves_no_orphan() {
    let dir = scratch("fail");
    let pids = dir.join("pids");
    for (mode, how) in [
        ("panic", "exit status: 101"),
        ("exit", "exit status: 7"),
        ("abort", "signal: 6"),
    ] {
        std::fs::create_dir_all(&pids).unwrap();
        let (ok, out, err) = probe(&dir, &["2", mode, pids.to_str().unwrap()]);
        assert!(!ok, "{mode}: the caller must exit non-zero");
        assert!(lines(&out, "point").is_empty(), "{mode}: no partial table");
        assert!(
            err.contains("pool: point 3:") && err.contains(how),
            "{mode}: {err}"
        );
        assert!(
            mode != "panic" || err.contains("boom at three"),
            "stderr tail: {err}"
        );
        assert!(err.contains("alive after return: 0"), "{mode}: {err}");
        // Every other point was still computed by somebody.
        assert!(std::fs::read_dir(&pids).unwrap().count() >= 1);
        std::fs::remove_dir_all(&pids).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn results_cross_the_process_boundary_bit_for_bit() {
    let dir = scratch("bits");
    let (ok, two, _) = probe(&dir, &["2", "bits"]);
    let (_, one, _) = probe(&dir, &["1", "bits"]);
    assert!(ok);
    assert_eq!(lines(&two, "point"), lines(&one, "point"));
    let p = lines(&two, "point");
    assert!(p[0].contains(": 0 floats []"), "empty Vec<f64>: {}", p[0]);
    // -0.0, the smallest subnormal, f64::MAX, another subnormal, a NaN.
    let want = r#"["8000000000000000", "0000000000000001", "7fefffffffffffff", "0008000000000000", "7ff8000000000000"]"#;
    assert!(p[5].contains(want), "{}", p[5]);
    assert!(p[4].contains(": 10000 floats"), "long Vec<f64>: {}", p[4]);
    assert!(
        p.iter().all(|l| l.contains("ints [18446744073709551615, ")),
        "u64::MAX"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_map_inside_a_worker_spawns_nothing_and_later_waves_reuse_earlier_ones() {
    let dir = scratch("nested");
    let (ok, out, _) = probe(&dir, &["2", "nested"]);
    assert!(ok);
    for (point, pid) in lines(&out, "point").iter().zip(lines(&out, "pid")) {
        let pid = &pid[7..];
        assert!(
            point.ends_with(&format!("ints [{pid}, {pid}, {pid}]")),
            "{point} / {pid}"
        );
    }
    // Two calls: the second's workers re-run `main` through the first call,
    // and must be handed its results, not compute them again.
    let log = dir.join("first-wave.log");
    let (ok, two, _) = probe(&dir, &["2", "waves", log.to_str().unwrap()]);
    assert!(ok);
    assert_eq!(two, "[10, 20, 30] [10, 21, 32, 13]\n");
    assert_eq!(
        std::fs::read_to_string(&log).unwrap().lines().count(),
        3,
        "each point once"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `sh -c script`, declared to take `secs` and `rss` bytes.
fn sh(script: String, secs: f64, rss: u64) -> Task {
    let mut command = Command::new("sh");
    command.arg("-c").arg(script);
    Task { command, secs, rss }
}

#[test]
fn the_memory_budget_keeps_large_tasks_apart_and_long_tasks_start_first() {
    let dir = scratch("budget");
    let stamp = |name: &str, rss| {
        let f = dir.join(name).display().to_string();
        sh(
            format!("date +%s%N > {f}.start; sleep 0.3; date +%s%N > {f}.end"),
            0.0,
            rss,
        )
    };
    let at = |name: &str| -> u128 {
        std::fs::read_to_string(dir.join(name))
            .unwrap()
            .trim()
            .parse()
            .unwrap()
    };
    let pool = Pool {
        workers: 2,
        budget: 100,
    };
    // 60 + 60 > 100: never side by side, although a worker is free.
    let done = pool.commands(vec![stamp("a", 60), stamp("b", 60)]);
    assert!(done.iter().all(|d| d.ok));
    assert!(
        at("a.end") <= at("b.start") || at("b.end") <= at("a.start"),
        "a and b overlapped"
    );
    // 40 + 40 fits: side by side, on different workers.
    let done = pool.commands(vec![stamp("c", 40), stamp("d", 40)]);
    assert!(
        at("c.start") < at("d.end") && at("d.start") < at("c.end"),
        "c and d did not overlap"
    );
    assert_ne!(done[0].worker, done[1].worker);
    // One over the budget on its own still runs — alone.
    let done = pool.commands(vec![stamp("e", 500), stamp("f", 1)]);
    assert!(done.iter().all(|d| d.ok));
    assert!(
        at("e.end") <= at("f.start") || at("f.end") <= at("e.start"),
        "e and f overlapped"
    );

    // Longest-declared first, ties in submission order; `Done`s stay in
    // submission order whatever the start order was.
    let log = dir.join("order.log").display().to_string();
    let note = |i: usize, secs| sh(format!("echo {i} >> {log}; exit {i}"), secs, 0);
    let one = Pool {
        workers: 1,
        budget: u64::MAX,
    };
    let done = one.commands(vec![note(0, 1.0), note(1, 3.0), note(2, 1.0), note(3, 2.0)]);
    assert_eq!(std::fs::read_to_string(&log).unwrap(), "1\n3\n0\n2\n");
    let ended: Vec<_> = done.iter().map(|d| d.ended.as_str()).collect();
    assert_eq!(
        ended,
        [
            "exit status: 0",
            "exit status: 1",
            "exit status: 2",
            "exit status: 3"
        ]
    );
    assert!(done[0].started_s > done[3].started_s && done[3].started_s > done[1].started_s);

    // A task that cannot be started is a failed `Done`, not a panic.
    let missing = Task {
        command: Command::new(dir.join("no-such-binary")),
        secs: 0.0,
        rss: 0,
    };
    let done = pool.commands(vec![missing, note(0, 0.0)]);
    assert!(!done[0].ok && done[1].ok, "{}", done[0].ended);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `bin` run on the host's pool (two workers on a two-core host) and, through
/// `pool_probe 1 run`, as a one-worker pool's child — where its `map` calls
/// run in-process: same stdout, same CSV bytes.
fn one_worker_equals_the_hosts_pool(test: &str, bin: &str, csv: &str, env: &[(&str, &str)]) {
    let run = |shape: &str, exe: &str, args: &[&str]| {
        let cwd = scratch(&format!("{test}-{shape}"));
        let out = run_in(&cwd, exe, args, env);
        assert!(
            out.status.success(),
            "{bin} ({shape}): {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(cwd.join("results").join(csv)).unwrap();
        std::fs::remove_dir_all(&cwd).unwrap();
        (out.stdout, bytes)
    };
    let pooled = run("host", bin, &[]);
    let inline = run("one", PROBE, &["1", "run", bin]);
    assert!(
        pooled.0 == inline.0,
        "{bin}: stdout differs between one worker and the host's pool"
    );
    assert!(
        pooled.1 == inline.1,
        "{bin}: {csv} differs between one worker and the host's pool"
    );
    assert!(!pooled.1.is_empty());
}

#[test]
fn fig17_is_the_same_with_one_worker_and_with_two() {
    one_worker_equals_the_hosts_pool(
        "fig17",
        env!("CARGO_BIN_EXE_fig17_cloud_leanmd"),
        "fig17.csv",
        &[],
    );
}

#[test]
fn fig04_is_the_same_with_one_worker_and_with_two() {
    one_worker_equals_the_hosts_pool("fig04", env!("CARGO_BIN_EXE_fig04_dvfs"), "fig04.csv", &[]);
}

#[test]
fn ft_campaign_is_the_same_with_one_worker_and_with_two() {
    let runs = [("CHARM_FT_RUNS", "5")];
    one_worker_equals_the_hosts_pool(
        "ftcamp",
        env!("CARGO_BIN_EXE_ft_campaign"),
        "ftcamp.csv",
        &runs,
    );
}
