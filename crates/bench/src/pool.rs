//! A process pool for the figure sweeps: the second core goes to whole
//! processes, never to threads inside one simulation (DESIGN §8: why, and
//! the worker protocol). [`Pool::commands`] runs child processes side by
//! side and replays their output in submission order. [`map`] is built on
//! it: one worker process per core re-runs this program up to the same `map`
//! call, claims points one at a time and leaves each result, packed by
//! `charm_pup`, for the parent to assemble in point order. With one core,
//! one point, or inside another pool's child, `map` calls `f` in-process —
//! the calls a worker would make.

use charm_pup::{from_bytes_exact, to_bytes, Pup};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};
use std::{env, fs, io};

/// The protocol's one variable, set by the pool on its children and never by
/// a user: `<call>:<slot>:<dir>` — the `map` call a worker computes (empty in
/// a `commands` child), the child's index, the parent's scratch directory.
const CHILD: &str = "CHARM_POOL_CHILD";

/// One child process, with the hints that order and admit it.
pub struct Task {
    pub command: Command,
    /// Expected wall seconds: the longest starts first.
    pub secs: f64,
    /// Expected peak resident set in bytes.
    pub rss: u64,
}

/// How one child ended.
pub struct Done {
    /// Started, and exited with status 0.
    pub ok: bool,
    /// "exit status: 1", "signal: 9 (SIGKILL)", or why it never started.
    pub ended: String,
    /// The last 2 KiB of the child's stderr.
    pub(crate) stderr_tail: String,
    /// Seconds from the start of the call to the child's start.
    pub started_s: f64,
    pub wall_s: f64,
    /// Which of the pool's workers (`0..workers`) ran the child.
    pub worker: usize,
    /// The child's own `VmHWM`, if it called `report_rss`.
    pub peak_rss: Option<u64>,
}

/// [`Pool::host`] everywhere but in tests, which fix both fields.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    pub workers: usize,
    /// Bytes the `rss` hints of concurrently running tasks may add up to.
    pub budget: u64,
}

/// This process's place in the protocol.
#[derive(Default)]
struct State {
    /// In a `map` worker: the call it computes and the scratch directory.
    worker: Option<(usize, PathBuf)>,
    /// `map` runs in-process: in a `commands` child, and inside a `map`'s `f`.
    inline: bool,
    rss_file: Option<PathBuf>,
    /// Top-level `map` calls so far and their packed results (for later workers).
    calls: usize,
    waves: Vec<Vec<u8>>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::from_env());
}

impl State {
    fn from_env() -> State {
        let Ok(var) = env::var(CHILD) else { return State::default() };
        let malformed = || die(&format!("pool: malformed {CHILD}={var} (only the pool sets it)"));
        let [call, slot, dir] = var.splitn(3, ':').collect::<Vec<_>>()[..] else { malformed() };
        let call = (!call.is_empty()).then(|| call.parse().unwrap_or_else(|_| malformed()));
        State {
            worker: call.map(|c| (c, PathBuf::from(dir))),
            inline: call.is_none(),
            rss_file: Some(Path::new(dir).join(format!("rss-{slot}"))),
            ..State::default()
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(1)
}

/// True in a `map` worker: the parent prints tables and writes CSVs.
pub(crate) fn is_worker() -> bool {
    STATE.with(|s| s.borrow().worker.is_some())
}

/// In a pool child, leave this process's peak RSS where the parent reads it.
pub(crate) fn report_rss() {
    let Some(file) = STATE.with(|s| s.borrow().rss_file.clone()) else { return };
    if let Some(bytes) = charm_machine::rss::peak_rss_bytes() {
        let _ = fs::write(file, bytes.to_string());
    }
}

/// [`Pool::map`] on the host's pool; a failed worker ends the process.
pub fn map<P, R: Pup + Default>(points: &[P], f: impl Fn(&P) -> R) -> Vec<R> {
    Pool::host().map(points, f).unwrap_or_else(|e| die(&e))
}

impl Pool {
    /// One worker per available core; budget = half of `MemAvailable`.
    pub fn host() -> Pool {
        let meminfo = fs::read_to_string("/proc/meminfo").unwrap_or_default();
        let mut avail = meminfo.lines().filter_map(|l| l.strip_prefix("MemAvailable:"));
        let kib = avail.next().and_then(|v| v.split_whitespace().next()?.parse::<u64>().ok());
        Pool {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            budget: kib.map_or(u64::MAX, |k| k * 1024 / 2),
        }
    }

    /// Run every task, at most `workers` at a time, longest-declared first,
    /// admitting one only while the `rss` hints of the running ones fit the
    /// budget. Output is replayed, and a `Done` returned, in submission order.
    pub fn commands(&self, tasks: Vec<Task>) -> Vec<Done> {
        self.run(tasks, None, &[], |_, done| done)
    }

    /// `f` over `points`, in point order. An error names the first point left
    /// without a result and quotes the failed worker's stderr; all are reaped.
    pub fn map<P, R, F>(&self, points: &[P], f: F) -> Result<Vec<R>, String>
    where
        R: Pup + Default,
        F: Fn(&P) -> R,
    {
        let plain = || points.iter().map(&f).collect::<Vec<R>>();
        let entered = STATE.with(|s| {
            let s = &mut *s.borrow_mut();
            (!std::mem::replace(&mut s.inline, true)).then(|| (s.calls, s.worker.clone()))
        });
        let Some((call, worker)) = entered else { return Ok(plain()) };
        let mut out = match worker {
            // An earlier wave: the parent has it, nobody recomputes it.
            Some((mine, dir)) if call < mine => read(&dir.join(format!("wave-{call}"))),
            Some((_, dir)) => {
                // Whoever creates `claim-<i>` owns point i. Sweeps list their
                // points smallest first: from the back is longest first.
                for (i, p) in points.iter().enumerate().rev() {
                    let claim = dir.join(format!("claim-{i}"));
                    match fs::File::options().write(true).create_new(true).open(claim) {
                        Ok(_) => fs::write(dir.join(format!("res-{i}")), to_bytes(&mut f(p))),
                        Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                        Err(e) => Err(e),
                    }
                    .unwrap_or_else(|e| die(&format!("pool: point {i}: {e}")));
                }
                report_rss();
                std::process::exit(0)
            }
            None if self.workers <= 1 || points.len() <= 1 => Ok(plain()),
            None => self.spawn_map(call, points.len()),
        };
        STATE.with(|s| {
            let s = &mut *s.borrow_mut();
            (s.inline, s.calls) = (false, s.calls + 1);
            if let (Ok(out), None) = (&mut out, &s.worker) {
                s.waves.push(to_bytes(out));
            }
        });
        out
    }

    fn spawn_map<R: Pup + Default>(&self, call: usize, n: usize) -> Result<Vec<R>, String> {
        let exe = env::current_exe().map_err(|e| format!("pool: current_exe: {e}"))?;
        let worker = |_| {
            let mut command = Command::new(&exe);
            command.args(env::args_os().skip(1));
            Task { command, secs: 0.0, rss: 0 }
        };
        let workers = (0..self.workers.min(n)).map(worker).collect();
        let waves = STATE.with(|s| s.borrow().waves.clone());
        self.run(workers, Some(call), &waves, |dir, done| {
            let missing = (0..n).find(|i| !dir.join(format!("res-{i}")).exists());
            match (done.iter().find(|d| !d.ok), missing) {
                (Some(d), at) => Err(format!(
                    "pool:{} a worker ended with {}; its stderr ends:\n{}",
                    at.map_or(String::new(), |i| format!(" point {i}:")),
                    d.ended,
                    d.stderr_tail
                )),
                (None, Some(i)) => Err(format!("pool: point {i}: `map` call {call} not reached")),
                (None, None) => (0..n).map(|i| read(&dir.join(format!("res-{i}")))).collect(),
            }
        })
    }

    /// The engine under both entry points, in a scratch directory of its own
    /// that `collect` sees before it is removed. `map` workers (`call` is
    /// `Some`) find the earlier `waves` there; their output is not replayed:
    /// they re-run `main`, which may print before its `map`.
    fn run<T>(
        &self,
        mut tasks: Vec<Task>,
        call: Option<usize>,
        waves: &[Vec<u8>],
        collect: impl FnOnce(&Path, Vec<Done>) -> T,
    ) -> T {
        // `create_dir` is atomic: the first free name is this call's alone.
        let name = |k| env::temp_dir().join(format!("charm-pool-{}-{k}", std::process::id()));
        let dir = &(0..1000).map(name).find(|d| fs::create_dir(d).is_ok()).unwrap_or_else(|| {
            die(&format!("pool: cannot create a directory under {}", env::temp_dir().display()))
        });
        let mut waves = waves.iter().enumerate();
        waves
            .try_for_each(|(j, w)| fs::write(dir.join(format!("wave-{j}")), w))
            .unwrap_or_else(|e| die(&format!("pool: {}: {e}", dir.display())));
        let t0 = Instant::now();
        // Longest first, ties in submission order; started from the back.
        let mut pending: Vec<usize> = (0..tasks.len()).collect();
        pending.sort_by(|&a, &b| tasks[b].secs.total_cmp(&tasks[a].secs));
        pending.reverse();
        let mut running: Vec<(usize, Child, usize, f64)> = Vec::new();
        let mut done: Vec<Option<Done>> = tasks.iter().map(|_| None).collect();
        let mut replayed = 0;
        let finish = |status: io::Result<ExitStatus>, i: usize, worker, started_s| {
            let err = fs::read(dir.join(format!("err-{i}"))).unwrap_or_default();
            let tail = String::from_utf8_lossy(&err[err.len().saturating_sub(2048)..]);
            let rss = fs::read_to_string(dir.join(format!("rss-{i}")));
            Some(Done {
                ok: status.as_ref().is_ok_and(ExitStatus::success),
                ended: status.map_or_else(|e| e.to_string(), |s| s.to_string()),
                stderr_tail: tail.into_owned(),
                started_s,
                wall_s: t0.elapsed().as_secs_f64() - started_s,
                worker,
                peak_rss: rss.ok().and_then(|s| s.parse().ok()),
            })
        };
        while !(pending.is_empty() && running.is_empty()) {
            while let Some(&i) = pending.last().filter(|_| running.len() < self.workers.max(1)) {
                let used: u64 = running.iter().map(|r| tasks[r.0].rss).sum();
                if !running.is_empty() && used.saturating_add(tasks[i].rss) > self.budget {
                    break; // a task over the budget on its own runs alone
                }
                pending.pop();
                let free = |w: &usize| running.iter().all(|r| r.2 != *w);
                let worker = (0..).find(free).expect("fewer children than workers");
                let started_s = t0.elapsed().as_secs_f64();
                let call = call.map_or(String::new(), |c| c.to_string());
                let var = format!("{call}:{i}:{}", dir.display());
                match spawn(&mut tasks[i].command, var, dir, i) {
                    Ok(child) => running.push((i, child, worker, started_s)),
                    Err(e) => done[i] = finish(Err(e), i, worker, started_s),
                }
            }
            let before = running.len();
            for k in (0..before).rev() {
                if let Some(status) = running[k].1.try_wait().transpose() {
                    let (i, _, worker, started_s) = running.swap_remove(k);
                    done[i] = finish(status, i, worker, started_s);
                }
            }
            while call.is_none() && done.get(replayed).is_some_and(Option::is_some) {
                let copy = |name, sink: &mut dyn io::Write| {
                    let file = fs::File::open(dir.join(format!("{name}-{replayed}")));
                    file.and_then(|mut f| io::copy(&mut f, sink))
                };
                let _ = (copy("out", &mut io::stdout()), copy("err", &mut io::stderr()));
                replayed += 1;
            }
            if running.len() == before && before > 0 {
                // Nobody finished: wait 1 % of the call's age, so a 50 ms sweep is
                // polled every 0.2 ms and a minute-long one barely at all.
                let nap = t0.elapsed() / 100;
                std::thread::sleep(nap.clamp(Duration::from_micros(200), Duration::from_millis(5)));
            }
        }
        let done = done.into_iter().map(|d| d.expect("every task was started and reaped"));
        let out = collect(dir, done.collect());
        let _ = fs::remove_dir_all(dir);
        out
    }
}

/// Start `cmd` as child `i`, its stdout and stderr captured under `dir`.
fn spawn(cmd: &mut Command, var: String, dir: &Path, i: usize) -> io::Result<Child> {
    let file = |name: &str| fs::File::create(dir.join(format!("{name}-{i}")));
    cmd.env(CHILD, var).stdin(Stdio::null()).stdout(file("out")?).stderr(file("err")?).spawn()
}

/// One packed value, whole.
fn read<T: Pup + Default>(file: &Path) -> Result<T, String> {
    let bytes = fs::read(file).map_err(|e| e.to_string());
    bytes.and_then(|b| from_bytes_exact(&b)).map_err(|e| format!("pool: {}: {e}", file.display()))
}
