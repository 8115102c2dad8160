//! The repository's performance benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload walk --seed 1 --seconds 8 --trace 0
//! ```
//!
//! Builds the Section 5.2 graph (Table 1 parameters) from `--seed`, drives
//! it closed-loop from this process with the CPU model off and no simulated
//! flush latency, checks the database after the run, and prints one line of
//! JSON last. `--trace 0` reports the end-to-end metrics of an untimed run;
//! `--trace 1` alternates untimed and traced slices of the window and
//! reports the per-layer metrics, including the tracing overhead. The
//! workloads and metrics are described in `perfbench/README.md`.

mod stats;
mod trace;
mod walker;

use brahma::{Database, PartitionId, SeedTree, StoreConfig, PAGE_SIZE};
use ira::{MigrationOrder, Reorg};
use rand::rngs::StdRng;
use rand::SeedableRng;
use stats::{median, percentile, quantile, CallHist, Report};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Layer, SpanLog, WALKER_LAYERS};
use walker::{Control, Tally, Walker, WalkerOut, IDLE, PLAIN, STOP, TRACED};
use workload::{build_graph, GraphInfo, WorkloadParams};

/// Set-ups per run, made in pairs side by side so that both CPUs stay
/// busy: on a shared 2-vCPU virtual machine with one CPU idle,
/// single-threaded speed was seen to flip between two levels 1.4x apart
/// for ten seconds and more at a time. `setup_s` is their median.
const SETUP_PAIRS: usize = 8;
/// Walkers run this long before anything is recorded.
const WARM_UP: Duration = Duration::from_millis(500);
/// `reorg` compacts partition 0 this many times per requested second.
const COMPACTIONS_PER_SECOND: u64 = 12;
/// `walk` and `durable` end with this many compactions of partition 0 on
/// the idle store, by the wave executor, whose 2 workers keep both CPUs
/// busy.
const IDLE_COMPACTIONS: usize = 30;
/// `walk` and `durable` cut their window into this many slices per second.
const SLICES_PER_SECOND: u32 = 10;
/// Interference from other tenants only ever slows a slice down, so a run
/// reports each per-slice figure at the quartile on its better side: the
/// upper quartile of rates, the lower quartile of response times.
const FAST: f64 = 0.75;
const QUICK: f64 = 0.25;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// 2 walkers, memory backend, no reorganization during the window.
    Walk,
    /// `Walk` through the file backend (real `fsync` group commit).
    Durable,
    /// 1 walker on partition 0 while basic IRA compacts it.
    Reorg,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "walk" => Workload::Walk,
            "durable" => Workload::Durable,
            "reorg" => Workload::Reorg,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Walk => "walk",
            Workload::Durable => "durable",
            Workload::Reorg => "reorg",
        }
    }

    fn walkers(self) -> usize {
        match self {
            Workload::Walk | Workload::Durable => 2,
            Workload::Reorg => 1,
        }
    }

    fn online_reorg(self) -> bool {
        self == Workload::Reorg
    }

    /// The reorganizer this workload runs on `partition`: basic IRA on
    /// line, the wave executor configured as the trajectory's multi-worker
    /// cells on the idle store.
    fn reorg(self, db: &Database, partition: PartitionId) -> Reorg<'_> {
        let r = Reorg::on(db, partition);
        match self {
            Workload::Reorg => r,
            Workload::Walk | Workload::Durable => r.workers(2).order(MigrationOrder::ParentGroup),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    // Each second of a `reorg` run leaves 12 compactions' worth of pages
    // behind; the bound keeps a run's memory in the hundreds of megabytes.
    let seconds = seconds.unwrap_or(8);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload walk|durable|reorg is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!(
                "usage: perfbench --workload walk|durable|reorg --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(msg) => {
            eprintln!("perfbench: run failed: {msg}");
            std::process::exit(1);
        }
    }
}

/// Where runs keep their temporary store and span files.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn store_config(data_dir: Option<PathBuf>) -> StoreConfig {
    StoreConfig {
        // Raw regime: no simulated flush latency. The 1 s lock timeout and
        // strict 2PL stay at the store's defaults.
        commit_flush_latency: Duration::ZERO,
        wal_retain: false,
        data_dir,
        ..StoreConfig::default()
    }
}

fn open_store(config: &StoreConfig) -> Result<Database, String> {
    match &config.data_dir {
        None => Ok(Database::new(config.clone())),
        Some(dir) => {
            let _ = std::fs::remove_dir_all(dir);
            brahma::storage::open(config.clone())
                .map(|out| out.db)
                .map_err(|e| format!("open {}: {e}", dir.display()))
        }
    }
}

struct Setup {
    db: Database,
    info: GraphInfo,
    /// The configuration `db` was opened with.
    config: StoreConfig,
    open_s: f64,
    graph_s: f64,
    setup_s: f64,
}

/// Open the store and build the graph; returns the store, the graph and
/// the open and build times in seconds.
fn set_up_once(
    config: &StoreConfig,
    params: &WorkloadParams,
) -> Result<(Database, GraphInfo, f64, f64), String> {
    let t0 = Instant::now();
    let db = open_store(config)?;
    let t1 = Instant::now();
    let info = build_graph(&db, params).map_err(|e| format!("graph build: {e}"))?;
    let t2 = Instant::now();
    Ok((db, info, (t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()))
}

/// Set up `SETUP_PAIRS` pairs of stores, the two of a pair side by side,
/// the file backend's in their own subdirectories; keep the first store of
/// the last pair.
fn set_up(config: &StoreConfig, params: &WorkloadParams) -> Result<Setup, String> {
    let configs: Vec<StoreConfig> = (0..2)
        .map(|i| StoreConfig {
            data_dir: config.data_dir.as_ref().map(|d| d.join(i.to_string())),
            ..config.clone()
        })
        .collect();
    let (mut opens, mut graphs, mut totals) = (vec![], vec![], vec![]);
    let mut last = None;
    for _ in 0..SETUP_PAIRS {
        // Drop the previous stores first: the file backend reuses their
        // directories.
        drop(last.take());
        let pair: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = configs
                .iter()
                .map(|c| s.spawn(move || set_up_once(c, params)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("set-up thread panicked"))
                .collect()
        });
        let mut stores = Vec::new();
        for one in pair {
            let (db, info, open_s, graph_s) = one?;
            opens.push(open_s);
            graphs.push(graph_s);
            totals.push(open_s + graph_s);
            stores.push((db, info));
        }
        last = Some(stores);
    }
    let (db, info) = last
        .and_then(|stores| stores.into_iter().next())
        .expect("at least one set-up");
    println!(
        "set-up: {} set-ups, {:.4} s min, {:.4} s median, {:.4} s max",
        totals.len(),
        quantile(&totals, 0.0),
        median(&totals),
        quantile(&totals, 1.0)
    );
    Ok(Setup {
        db,
        info,
        config: configs[0].clone(),
        open_s: median(&opens),
        graph_s: median(&graphs),
        setup_s: median(&totals),
    })
}

fn total_objects(db: &Database) -> usize {
    db.partition_ids()
        .into_iter()
        .map(|p| {
            db.partition(p)
                .expect("listed partition exists")
                .object_count()
        })
        .sum()
}

/// What the reorganizer side of a run measured.
#[derive(Default)]
struct ReorgSide {
    /// Objects migrated by each `Reorg::run`.
    migrated: Vec<u64>,
    /// Wall-clock time of each `Reorg::run`, in nanoseconds.
    run_ns: Vec<u64>,
    /// `ReorgReport::export` of every run, summed.
    report: obs::Snapshot,
    /// `Database::obs_snapshot` differences across every run, summed.
    obs: obs::Snapshot,
}

impl ReorgSide {
    /// Compact `partition` once, check the result, and account for it.
    /// With `walkers`, the step is one slice of the measured window; the
    /// checks after it are outside every slice.
    fn compact(
        &mut self,
        workload: Workload,
        db: &Database,
        partition: PartitionId,
        walkers: Option<(&Control, u8, &mut Window)>,
        log: &mut SpanLog,
    ) -> Result<(), String> {
        let live = db
            .partition(partition)
            .map_err(|e| e.to_string())?
            .object_count();
        let before = db.obs_snapshot();
        let slice = walkers.map(|(ctl, state, window)| (ctl, window.open(ctl, state), window));
        let start = Instant::now();
        let outcome = workload.reorg(db, partition).run();
        let end = Instant::now();
        let after = match slice {
            Some((ctl, i, window)) => window.close(ctl, i, end - start, &before, db),
            None => db.obs_snapshot(),
        };
        let id = log.next_id();
        log.push(id, 0, "reorg.run", start, end);
        let outcome = outcome.map_err(|e| format!("Reorg::run failed: {e}"))?;
        if outcome.migrated() != live {
            return Err(format!(
                "Reorg::run migrated {} of {live} live objects",
                outcome.migrated()
            ));
        }
        let report = outcome
            .ira()
            .ok_or("incremental Reorg::run gave no IRA report")?;
        ira::verify::assert_reorganization_clean(db, report);
        if let Some(r) = &outcome.report {
            let mut snap = obs::Snapshot::new();
            r.export(&mut snap);
            self.report.merge(&snap);
        }
        self.migrated.push(outcome.migrated() as u64);
        self.run_ns.push((end - start).as_nanos() as u64);
        self.obs.merge(&after.diff(&before));
        Ok(())
    }

    fn runs(&self) -> u64 {
        self.run_ns.len() as u64
    }

    /// Objects migrated per second of `Reorg::run`, upper quartile over
    /// runs.
    fn objs_per_s(&self) -> f64 {
        let rates: Vec<f64> = self
            .migrated
            .iter()
            .zip(&self.run_ns)
            .map(|(&m, &ns)| m as f64 / (ns as f64 / 1e9))
            .collect();
        quantile(&rates, FAST)
    }
}

/// The measured window: a sequence of slices, each untraced or traced.
/// Walkers record every logical transaction into the slice that was open
/// when it started.
#[derive(Default)]
struct Window {
    /// State and length of each slice.
    slices: Vec<(u8, Duration)>,
    /// `Database::obs_snapshot` differences across the traced slices.
    traced_obs: obs::Snapshot,
}

impl Window {
    /// Open the next slice; walkers record into it from now on.
    fn open(&mut self, ctl: &Control, state: u8) -> usize {
        self.slices.push((state, Duration::ZERO));
        ctl.set(state, self.slices.len() - 1);
        self.slices.len() - 1
    }

    /// Close slice `i` after `len`; returns the snapshot taken at its end.
    fn close(
        &mut self,
        ctl: &Control,
        i: usize,
        len: Duration,
        before: &obs::Snapshot,
        db: &Database,
    ) -> obs::Snapshot {
        ctl.set(IDLE, i);
        let after = db.obs_snapshot();
        self.slices[i].1 = len;
        if self.slices[i].0 == TRACED {
            self.traced_obs.merge(&after.diff(before));
        }
        after
    }

    fn total(&self, state: u8) -> Duration {
        self.slices
            .iter()
            .filter(|s| s.0 == state)
            .map(|s| s.1)
            .sum()
    }
}

/// Per-slice walker figures of one state, and their pooled totals.
struct SliceStats {
    rates: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
    pooled: Tally,
    window: Duration,
}

impl SliceStats {
    fn new(window: &Window, tallies: &mut [Tally], state: u8) -> Self {
        let mut st = SliceStats {
            rates: vec![],
            p50_us: vec![],
            p99_us: vec![],
            pooled: Tally::default(),
            window: window.total(state),
        };
        for (&(s, len), t) in window.slices.iter().zip(tallies) {
            if s != state {
                continue;
            }
            let mut t = std::mem::take(t);
            st.rates.push(t.committed as f64 / len.as_secs_f64());
            // A slice without a single commit (its walkers stalled the
            // whole time) has no finite response time.
            t.response_ns.sort_unstable();
            let us = |q| match t.response_ns.is_empty() {
                true => f64::INFINITY,
                false => percentile(&t.response_ns, q) as f64 / 1e3,
            };
            st.p50_us.push(us(0.5));
            st.p99_us.push(us(0.99));
            st.pooled.merge(t);
        }
        st
    }

    fn rate(&self) -> f64 {
        quantile(&self.rates, FAST)
    }

    fn p50_us(&self) -> f64 {
        quantile(&self.p50_us, QUICK)
    }

    fn p99_us(&self) -> f64 {
        quantile(&self.p99_us, QUICK)
    }

    /// Print the pooled figures: exact percentiles over every committed
    /// transaction of the state's slices, with their sample count, and
    /// p99.9 as a diagnostic.
    fn print(&mut self, label: &str) {
        self.pooled.response_ns.sort_unstable();
        let v = &self.pooled.response_ns;
        let n = v.len();
        let us = |q| {
            if n == 0 {
                f64::NAN
            } else {
                percentile(v, q) as f64 / 1e3
            }
        };
        println!(
            "{label}: {} committed, {} aborted attempts in {:.3} s over {} slices ({:.1} txn/s pooled, {:.1} upper quartile of slices)",
            self.pooled.committed,
            self.pooled.aborted,
            self.window.as_secs_f64(),
            self.rates.len(),
            self.pooled.committed as f64 / self.window.as_secs_f64(),
            self.rate()
        );
        println!(
            "{label}: response time over every sample: p50 {:.3} us (n={n}), p99 {:.3} us (n={n}), p99.9 {:.3} us (diagnostic, n={n}), max {:.3} us",
            us(0.5),
            us(0.99),
            us(0.999),
            us(1.0),
        );
        println!(
            "{label}: lower quartile of slices: p50 {:.3} us, p99 {:.3} us (median of slices: {:.3} us, {:.3} us)",
            self.p50_us(),
            self.p99_us(),
            median(&self.p50_us),
            median(&self.p99_us)
        );
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let tag = format!("{}-seed{}", w.name(), args.seed);
    let store_dir =
        (w == Workload::Durable).then(|| out.join(format!("store-{tag}-{}", std::process::id())));
    let config = store_config(store_dir.clone());
    let params = WorkloadParams {
        seed: args.seed,
        mpl: w.walkers(),
        ..WorkloadParams::default()
    };

    let setup = set_up(&config, &params)?;
    let db = &setup.db;
    let info = &setup.info;
    let p0 = info.data_partitions[0];
    let epoch = Instant::now();
    let mut reorg_log = SpanLog::new(epoch, 1000);
    let mut reorg = ReorgSide::default();
    let mut window = Window::default();
    let ctl = Control::new();
    let walking_before = db.obs_snapshot();

    // ---- The measured window: closed-loop walkers, and for the on-line
    // workloads the reorganizer compacting partition 0 under them.
    let walker_outs: Vec<WalkerOut> = std::thread::scope(|s| -> Result<_, String> {
        let handles: Vec<_> = (0..w.walkers())
            .map(|t| {
                let home = t % info.data_partitions.len();
                // Per-walker stream off the SeedTree, as workload::driver
                // derives it.
                let rng = StdRng::seed_from_u64(
                    SeedTree::new(params.seed)
                        .child("workload.walker")
                        .child_idx(t as u64)
                        .seed(),
                );
                let walker = Walker {
                    db,
                    info,
                    params: &params,
                    home,
                    rng,
                };
                let ctl = &ctl;
                s.spawn(move || walker.run(ctl, epoch, t as u32))
            })
            .collect();
        let driven = drive(args, db, p0, &ctl, &mut reorg, &mut window, &mut reorg_log);
        ctl.set(STOP, 0);
        let mut outs = Vec::new();
        for h in handles {
            match h.join() {
                Ok(Ok(o)) => outs.push(o),
                Ok(Err(e)) => return Err(format!("walker hit a non-retryable error: {e}")),
                Err(_) => return Err("walker thread panicked".into()),
            }
        }
        driven?;
        Ok(outs)
    })?;
    // Counters from the walkers' start to their end, warm-up included.
    let walking = db.obs_snapshot().diff(&walking_before);

    // ---- Correctness gate, outside every measured window.
    brahma::sweep::assert_database_consistent(db);
    if !w.online_reorg() {
        for _ in 0..IDLE_COMPACTIONS {
            reorg.compact(w, db, p0, None, &mut reorg_log)?;
        }
        brahma::sweep::assert_database_consistent(db);
    }
    let space = db.partition(p0).map_err(|e| e.to_string())?.space_stats();
    let space_amp = (space.pages as u64 * PAGE_SIZE as u64) as f64 / space.used_bytes as f64;
    let expected = info.total_objects + info.data_partitions.len();
    let objects = total_objects(db);
    if objects != expected {
        return Err(format!(
            "{objects} objects after the run, expected {expected}"
        ));
    }
    if let Some(dir) = &store_dir {
        drop(setup.db);
        let reopened =
            brahma::storage::open(setup.config.clone()).map_err(|e| format!("reopen: {e}"))?;
        brahma::sweep::assert_database_consistent(&reopened.db);
        let again = total_objects(&reopened.db);
        if again != objects {
            return Err(format!("{again} objects after reopen, {objects} before"));
        }
        drop(reopened);
        std::fs::remove_dir_all(dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }

    // ---- Results.
    let mut hists = vec![CallHist::default(); WALKER_LAYERS.len()];
    let mut logs = vec![&reorg_log];
    for o in &walker_outs {
        for (h, o) in hists.iter_mut().zip(&o.probe.hists) {
            h.merge(o);
        }
        logs.push(&o.probe.log);
    }
    let spans_path = out.join(format!("spans-{tag}.csv"));
    let spans_written = if args.trace {
        trace::write_spans(&spans_path, &logs)
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?
    } else {
        0
    };
    let mut merged: Vec<Tally> = (0..window.slices.len()).map(|_| Tally::default()).collect();
    for o in walker_outs {
        for (m, t) in merged.iter_mut().zip(o.slices) {
            m.merge(t);
        }
    }
    let mut plain = SliceStats::new(&window, &mut merged, PLAIN);
    let mut traced = SliceStats::new(&window, &mut merged, TRACED);
    println!(
        "{} seed {}: {} compactions of partition 0 migrated {} objects in {:.3} s of Reorg::run",
        w.name(),
        args.seed,
        reorg.runs(),
        reorg.migrated.iter().sum::<u64>(),
        reorg.run_ns.iter().sum::<u64>() as f64 / 1e9
    );
    plain.print("untraced");
    println!(
        "lock timeouts while the walkers ran: {}",
        walking.get("lock.timeouts")
    );

    // An operation is a logical transaction or a `Reorg::run`. Every
    // logical transaction retries its aborted attempts until it commits,
    // and a non-retryable error or a failed reorganization ends the run
    // without a result line, so no counted operation failed. The aborted
    // attempts are reported above, and as `failed_frac` and
    // `lock.timeouts` by the traced run.
    let failed = 0;
    let attempted = plain.pooled.committed + traced.pooled.committed + reorg.runs();
    let mut report = Report::default();
    if !args.trace {
        report.put("txn_per_s", plain.rate(), "1/s");
        report.put("txn_p50_us", plain.p50_us(), "us");
        report.put("txn_p99_us", plain.p99_us(), "us");
        report.put("reorg_objs_per_s", reorg.objs_per_s(), "1/s");
        report.put("space_amp", space_amp, "ratio");
        report.put("setup_s", setup.setup_s, "s");
    } else {
        traced.print("traced");
        let t = &traced.pooled;
        let txns = t.committed as f64;
        let o = &window.traced_obs;
        let per_txn = |key: &str| o.get(key) as f64 / txns;
        let hist = |l: Layer| &hists[l as usize];
        let busy_ns: u64 = hists.iter().map(|h| h.sum_ns).sum();
        let walker_ns = traced.window.as_nanos() as f64 * w.walkers() as f64;

        report.put("setup.open_s", setup.open_s, "s");
        report.put("setup.graph_s", setup.graph_s, "s");
        report.put("txn.samples", txns, "count");
        // Over every slice, untraced ones too.
        let aborted = (plain.pooled.aborted + t.aborted) as f64;
        report.put(
            "failed_frac",
            aborted / (aborted + (plain.pooled.committed + t.committed) as f64),
            "ratio",
        );
        report.put(
            "trace.overhead_frac",
            1.0 - traced.rate() / plain.rate(),
            "ratio",
        );
        report.put("trace.spans", spans_written as f64, "count");
        report.put("walker.busy_frac", busy_ns as f64 / walker_ns, "ratio");
        for l in WALKER_LAYERS {
            report.put(
                &format!("{}.time_share", l.name()),
                hist(l).sum_ns as f64 / walker_ns,
                "ratio",
            );
        }
        report.put(
            "begin.call_ns_p50",
            hist(Layer::Begin).percentile_ns(0.5),
            "ns",
        );
        for l in [Layer::Lock, Layer::Read, Layer::Write, Layer::Commit] {
            report.put(
                &format!("{}.call_ns_p50", l.name()),
                hist(l).percentile_ns(0.5),
                "ns",
            );
            report.put(
                &format!("{}.call_ns_p99", l.name()),
                hist(l).percentile_ns(0.99),
                "ns",
            );
        }
        report.put(
            "lock.calls_per_txn",
            hist(Layer::Lock).calls as f64 / txns,
            "count",
        );
        // The fast path counts acquires and releases alike: one of each per
        // grant.
        report.put(
            "lock.fastpath_ratio",
            o.get("lock.fastpath_hits") as f64 / (2 * o.get("lock.acquisitions")).max(1) as f64,
            "ratio",
        );
        report.put("lock.waits_per_txn", per_txn("lock.waits"), "count");
        report.put("lock.wait_us_sum", o.get("lock.wait_us_sum") as f64, "us");
        report.put(
            "lock.timeouts",
            walking.get("lock.timeouts") as f64,
            "count",
        );
        report.put("wal.bytes_per_txn", per_txn("wal.bytes"), "B");
        report.put("wal.flushes_per_txn", per_txn("wal.flushes"), "count");
        report.put("wal.flush_us_sum", o.get("wal.flush_us_sum") as f64, "us");
        report.put(
            "wal.pipeline_overlap_us",
            o.get("wal.pipeline_overlap_us") as f64,
            "us",
        );
        report.put("file.fsyncs_per_txn", per_txn("file.fsyncs"), "count");

        let mut run_ns = reorg.run_ns.clone();
        run_ns.sort_unstable();
        let runs = reorg.runs() as f64;
        let r = &reorg.report;
        let phase_share = |key: &str| r.get(key) as f64 / r.get("ira.duration_us").max(1) as f64;
        report.put(
            "reorg.run_ms_p50",
            percentile(&run_ns, 0.5) as f64 / 1e6,
            "ms",
        );
        report.put(
            "reorg.run_ms_p99",
            percentile(&run_ns, 0.99) as f64 / 1e6,
            "ms",
        );
        for phase in ["quiesce", "traversal", "exact_parents", "migrate", "gc"] {
            report.put(
                &format!("ira.{phase}_share"),
                phase_share(&format!("ira.{phase}_us")),
                "ratio",
            );
        }
        for key in [
            "ira.retries",
            "ira.external_parent_locks",
            "ira.waves",
            "ira.parent_groups",
            "ira.deferred",
        ] {
            report.put(key, r.get(key) as f64 / runs, "count");
        }
        for key in [
            "ert.rekeys",
            "db.reorg_wave_batches",
            "db.reorg_wave_steals",
        ] {
            report.put(key, reorg.obs.get(key) as f64 / runs, "count");
        }
        report.put("partition.pages_end", space.pages as f64, "count");
        report.put(
            "partition.free_extent_bytes_end",
            space.free_extent_bytes as f64,
            "B",
        );
        println!(
            "walker busy {:.3} of wall time in traced slices; {spans_written} spans in {}",
            busy_ns as f64 / walker_ns,
            spans_path.display()
        );
    }
    Ok(report.json_line(true, attempted, failed))
}

/// The main thread's part of the measured window.
fn drive(
    args: &Args,
    db: &Database,
    p0: PartitionId,
    ctl: &Control,
    reorg: &mut ReorgSide,
    window: &mut Window,
    log: &mut SpanLog,
) -> Result<(), String> {
    std::thread::sleep(WARM_UP);
    // A traced run alternates untraced and traced slices, so that drift
    // over the run (the partition grows with every compaction) does not
    // show up as tracing overhead.
    let states: &[u8] = if args.trace {
        &[PLAIN, TRACED]
    } else {
        &[PLAIN]
    };
    if args.workload.online_reorg() {
        // One slice per compaction.
        for i in 0..args.seconds * COMPACTIONS_PER_SECOND {
            let state = states[i as usize % states.len()];
            reorg.compact(args.workload, db, p0, Some((ctl, state, &mut *window)), log)?;
        }
    } else {
        let slices = args.seconds as u32 * SLICES_PER_SECOND;
        let slice = Duration::from_secs(args.seconds) / slices;
        let mut before = db.obs_snapshot();
        for i in 0..slices as usize {
            let state = states[i % states.len()];
            let idx = window.open(ctl, state);
            let start = Instant::now();
            std::thread::sleep(slice);
            before = window.close(ctl, idx, start.elapsed(), &before, db);
        }
    }
    Ok(())
}
