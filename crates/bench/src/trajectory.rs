//! Perf trajectory: the falsifiable "is it faster now?" record.
//!
//! Every PR that claims a performance win regenerates `BENCH_<n>.json` at
//! the repo root with `cargo run -p bench --release --bin paper_figures --
//! trajectory`. The file captures a fixed cell matrix — MPL {8, 30, 60} ×
//! {NR, IRA-serial, IRA-4-workers} — with throughput, reorganization
//! wall-clock, tail walker latency (p99/p99.9 from
//! [`obs::Histogram::quantile_us`]), and the executor's retry / defer /
//! throttle counters, plus a workload fingerprint so numbers are
//! only ever compared against the same workload. The comparator diffs a
//! fresh run against the newest prior `BENCH_*.json` and prints
//! regressions (see [`REGRESSION_RULE`]), so "faster" is a diff anyone can
//! re-run, not a claim in a commit message.
//!
//! The JSON is written and read by hand here: the workspace `serde` is a
//! no-op shim (offline build), so derive magic would silently produce
//! nothing.

use crate::locality::{run_locality, LocalityOptions, LocalityResult};
use crate::runner::{run_cell, Algo, CellConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;
use workload::WorkloadParams;

/// Bump when a field is added/renamed/re-unitted. The comparator refuses
/// to diff across schema versions. The optional `"locality"` object (the
/// closed clustering loop, see [`crate::locality`]) is additive: files
/// without it still validate and compare.
pub const SCHEMA_VERSION: u64 = 1;

/// The regression rule the comparator applies to same-fingerprint runs:
/// throughput must not drop by more than 10%, and reorganization
/// wall-clock and p99/p99.9 walker latency must not rise by more than 25%
/// (tail quantiles are bucket upper bounds, so small wobbles are expected;
/// a bucket boundary is a factor of two).
pub const REGRESSION_RULE: &str =
    "ops/s -10%, reorg wall-clock +25%, p99/p99.9 latency +25%";

const MPLS: [usize; 3] = [8, 30, 60];

/// The three systems of the matrix. `IRA-serial` runs the migration queue
/// on one worker; `IRA-4w` drains conflict-disjoint waves on four.
const MODES: [(&str, Algo, usize); 3] = [
    ("NR", Algo::Nr, 0),
    ("IRA-serial", Algo::Ira, 1),
    ("IRA-4w", Algo::Ira, 4),
];

#[derive(Debug, Clone, Copy)]
pub struct TrajectoryOptions {
    /// Shrink the workload for a CI smoke run. Quick runs are fingerprinted
    /// as such and never compared against full runs.
    pub quick: bool,
}

/// Workload identity: two trajectory files are comparable only when these
/// match (MPL varies per cell and is part of the cell key instead).
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub quick: bool,
    /// `"mem"` (default, the paper's memory-resident store) or `"file"`
    /// (`TRAJ_FILE_BACKEND=1`: durable file backend, real fsyncs priced
    /// into every commit). Runs with different backends never diff.
    pub backend: &'static str,
    pub num_partitions: u64,
    pub objs_per_partition: u64,
    pub ops_per_trans: u64,
    pub update_prob: f64,
    pub seed: u64,
}

/// One cell of the matrix.
#[derive(Debug, Clone)]
pub struct TrajCell {
    pub mpl: usize,
    pub mode: &'static str,
    pub ops_per_sec: f64,
    /// Reorganization wall-clock in seconds (0 for NR).
    pub reorg_secs: f64,
    /// Tail walker response times (µs) from `obs::Histogram::quantile_us`.
    pub p99_us: u64,
    pub p999_us: u64,
    pub committed: u64,
    pub aborted_attempts: u64,
    pub migrated: u64,
    /// Executor health counters: batch retries, objects deferred to the
    /// serial tail, throttle pauses.
    pub retries: u64,
    pub deferred: u64,
    pub throttle_pauses: u64,
    pub lock_timeouts: u64,
}

#[derive(Debug, Clone)]
pub struct Trajectory {
    pub fingerprint: Fingerprint,
    pub cells: Vec<TrajCell>,
    /// The closed clustering loop (observe → plan → reorganize → measure),
    /// run once per trajectory.
    pub locality: Option<LocalityResult>,
}

fn base_params(opts: &TrajectoryOptions) -> WorkloadParams {
    // Full mode runs a third of the paper's partition size so the whole
    // matrix finishes in minutes rather than tens of minutes; the
    // fingerprint records the choice, so runs stay comparable.
    WorkloadParams {
        objs_per_partition: if opts.quick { 300 } else { 1020 },
        ..WorkloadParams::default()
    }
}

/// Run the full matrix. Each cell is an independent database + workload;
/// the reorganizing cells measure until the reorganization completes, NR
/// measures a fixed window.
pub fn run_trajectory(opts: &TrajectoryOptions) -> Trajectory {
    let params = base_params(opts);
    let file_backend = brahma::env_cfg::traj_file_backend();
    let fingerprint = Fingerprint {
        quick: opts.quick,
        backend: if file_backend { "file" } else { "mem" },
        num_partitions: params.num_partitions as u64,
        objs_per_partition: params.objs_per_partition as u64,
        ops_per_trans: params.ops_per_trans as u64,
        update_prob: params.update_prob,
        seed: params.seed,
    };
    let mut cells = Vec::new();
    for mpl in MPLS {
        for (mode, algo, workers) in MODES {
            eprintln!("  [trajectory mpl={mpl} {mode}]");
            let mut cfg = CellConfig::paper(algo);
            cfg.params = params.clone();
            cfg.params.mpl = mpl;
            cfg.nr_window = if opts.quick {
                Duration::from_millis(400)
            } else {
                Duration::from_secs(3)
            };
            // Four virtual CPUs: with the paper's single CPU the model
            // serializes walkers and migrators alike, and the 4-worker
            // cell could never beat the serial one.
            cfg.cpu_capacity = 4;
            if workers > 0 {
                cfg.ira.workers = workers;
            }
            if workers > 1 {
                // Multi-worker cells plan parent-group waves: components
                // sharing an external parent land on one worker, which
                // acquires that anchor once per batch instead of once per
                // component (the MPL-60 contention fix).
                cfg.ira.order = ira::MigrationOrder::ParentGroup;
            }
            let cell_dir = file_backend.then(|| {
                std::env::temp_dir().join(format!(
                    "brahma-traj-{}-{mpl}-{mode}",
                    std::process::id()
                ))
            });
            if let Some(dir) = &cell_dir {
                // Durable cell: real fsyncs on the group-commit path
                // replace the simulated flush latency.
                let _ = std::fs::remove_dir_all(dir);
                cfg.store.data_dir = Some(dir.clone());
                cfg.store.commit_flush_latency = Duration::ZERO;
            }
            let r = run_cell(&cfg);
            if let Some(dir) = &cell_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
            cells.push(TrajCell {
                mpl,
                mode,
                ops_per_sec: r.summary.throughput_tps,
                reorg_secs: r.reorg_secs.unwrap_or(0.0),
                p99_us: r.latency_p99_us,
                p999_us: r.latency_p999_us,
                committed: r.summary.committed,
                aborted_attempts: r.summary.aborted_attempts,
                migrated: r.migrated as u64,
                retries: r.counters.get("ira.retries"),
                deferred: r.counters.get("ira.deferred"),
                throttle_pauses: r.counters.get("ira.throttle.pauses"),
                lock_timeouts: r.lock_timeouts,
            });
        }
    }
    eprintln!("  [trajectory locality loop]");
    let locality = Some(run_locality(&LocalityOptions { quick: opts.quick }));
    Trajectory {
        fingerprint,
        cells,
        locality,
    }
}

// ------------------------------------------------------------ JSON out --

fn push_f64(out: &mut String, v: f64) {
    // JSON has no NaN/Inf; clamp to 0 (only reachable from a zero-length
    // measurement window).
    if v.is_finite() {
        let _ = write!(out, "{v:.3}");
    } else {
        out.push('0');
    }
}

impl Trajectory {
    /// Serialize; `bench_index` is the `<n>` of the target `BENCH_<n>.json`.
    pub fn to_json(&self, bench_index: u64) -> String {
        let mut o = String::with_capacity(4096);
        o.push_str("{\n");
        let _ = writeln!(o, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(o, "  \"bench_index\": {bench_index},");
        o.push_str("  \"fingerprint\": {");
        let f = &self.fingerprint;
        let _ = write!(
            o,
            "\"quick\": {}, \"backend\": \"{}\", \"num_partitions\": {}, \
             \"objs_per_partition\": {}, \"ops_per_trans\": {}, \"update_prob\": ",
            f.quick, f.backend, f.num_partitions, f.objs_per_partition, f.ops_per_trans
        );
        push_f64(&mut o, f.update_prob);
        let _ = writeln!(o, ", \"seed\": {}}},", f.seed);
        o.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                o,
                "    {{\"mpl\": {}, \"mode\": \"{}\", \"ops_per_sec\": ",
                c.mpl, c.mode
            );
            push_f64(&mut o, c.ops_per_sec);
            o.push_str(", \"reorg_secs\": ");
            push_f64(&mut o, c.reorg_secs);
            let _ = write!(
                o,
                ", \"p99_us\": {}, \"p999_us\": {}, \"committed\": {}, \
                 \"aborted_attempts\": {}, \"migrated\": {}, \"retries\": {}, \
                 \"deferred\": {}, \"throttle_pauses\": {}, \
                 \"lock_timeouts\": {}}}",
                c.p99_us,
                c.p999_us,
                c.committed,
                c.aborted_attempts,
                c.migrated,
                c.retries,
                c.deferred,
                c.throttle_pauses,
                c.lock_timeouts
            );
            o.push_str(if i + 1 < self.cells.len() { ",\n" } else { "\n" });
        }
        o.push_str("  ]");
        if let Some(l) = &self.locality {
            o.push_str(",\n  \"locality\": {\n");
            for (label, w) in [("pre", &l.pre), ("post", &l.post)] {
                let _ = write!(o, "    \"{label}\": {{\"ops_per_sec\": ");
                push_f64(&mut o, w.ops_per_sec);
                let _ = write!(
                    o,
                    ", \"p99_us\": {}, \"committed\": {}, \"hit_rate\": ",
                    w.p99_us, w.committed
                );
                push_f64(&mut o, w.hit_rate);
                o.push_str("},\n");
            }
            o.push_str("    \"identity_cost\": ");
            push_f64(&mut o, l.identity_cost);
            o.push_str(", \"planned_cost\": ");
            push_f64(&mut o, l.planned_cost);
            o.push_str(", \"achieved_cost\": ");
            push_f64(&mut o, l.achieved_cost);
            let _ = write!(
                o,
                ",\n    \"migrated\": {}, \"edges_recorded\": {}, \"edges_distinct\": {}\n  }}",
                l.migrated, l.edges_recorded, l.edges_distinct
            );
        }
        o.push_str("\n}\n");
        o
    }
}

// ------------------------------------------------------------- JSON in --

/// Minimal JSON value — just enough to read our own trajectory files.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn u64_of(&self, key: &str) -> Option<u64> {
        self.get(key)?.num().map(|n| n as u64)
    }

    pub fn f64_of(&self, key: &str) -> Option<f64> {
        self.get(key)?.num()
    }

    pub fn str_of(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// Recursive-descent parser for the subset of JSON the writer above emits
/// (standard string escapes, no scientific notation in practice but
/// accepted anyway). Errors carry a byte offset.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let b = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(s);
            }
            b'\\' => {
                *pos += 1;
                let esc = *b.get(*pos).ok_or("dangling escape")?;
                s.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => return Err(format!("unsupported escape \\{}", other as char)),
                });
                *pos += 1;
            }
            _ => {
                // Multi-byte UTF-8 passes through unchanged.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().ok_or("unexpected end of string")?;
                s.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
    Err("unterminated string".into())
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        fields.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

// ----------------------------------------------------------- validation --

/// Structural validation of an emitted trajectory file — the CI smoke
/// gate. Checks the schema version, that every cell of the matrix is
/// present with every key, that tail quantiles are monotone
/// (p99 ≤ p99.9), and that every cell actually measured something
/// (committed > 0, and reorganizing cells migrated > 0 objects).
pub fn validate(doc: &Json) -> Result<(), String> {
    match doc.u64_of("schema_version") {
        Some(SCHEMA_VERSION) => {}
        other => return Err(format!("schema_version {other:?} != {SCHEMA_VERSION}")),
    }
    doc.get("fingerprint")
        .ok_or("missing fingerprint")?
        .u64_of("objs_per_partition")
        .ok_or("fingerprint missing objs_per_partition")?;
    let Some(Json::Arr(cells)) = doc.get("cells") else {
        return Err("missing cells array".into());
    };
    let expected = MPLS.len() * MODES.len();
    if cells.len() != expected {
        return Err(format!("{} cells, expected {expected}", cells.len()));
    }
    for c in cells {
        let mpl = c.u64_of("mpl").ok_or("cell missing mpl")?;
        let mode = c.str_of("mode").ok_or("cell missing mode")?;
        let tag = format!("mpl={mpl} {mode}");
        for key in [
            "p99_us",
            "p999_us",
            "committed",
            "aborted_attempts",
            "migrated",
            "retries",
            "deferred",
            "throttle_pauses",
            "lock_timeouts",
        ] {
            c.u64_of(key).ok_or(format!("{tag}: missing {key}"))?;
        }
        for key in ["ops_per_sec", "reorg_secs"] {
            c.f64_of(key).ok_or(format!("{tag}: missing {key}"))?;
        }
        if c.u64_of("p99_us") > c.u64_of("p999_us") {
            return Err(format!("{tag}: p99 > p99.9"));
        }
        if c.u64_of("committed") == Some(0) {
            return Err(format!("{tag}: no committed transactions"));
        }
        if mode.starts_with("IRA") {
            if c.u64_of("migrated") == Some(0) {
                return Err(format!("{tag}: reorganizing cell migrated nothing"));
            }
            if c.f64_of("reorg_secs") <= Some(0.0) {
                return Err(format!("{tag}: reorganizing cell took no time"));
            }
        }
    }
    // The locality object is optional (additive field), but when present
    // it must be structurally complete and internally consistent.
    if let Some(l) = doc.get("locality") {
        for win in ["pre", "post"] {
            let w = l.get(win).ok_or(format!("locality: missing {win}"))?;
            w.f64_of("ops_per_sec")
                .ok_or(format!("locality.{win}: missing ops_per_sec"))?;
            w.u64_of("p99_us").ok_or(format!("locality.{win}: missing p99_us"))?;
            if w.u64_of("committed") == Some(0) {
                return Err(format!("locality.{win}: no committed transactions"));
            }
            let rate = w
                .f64_of("hit_rate")
                .ok_or(format!("locality.{win}: missing hit_rate"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("locality.{win}: hit_rate {rate} out of [0,1]"));
            }
        }
        for key in ["identity_cost", "planned_cost", "achieved_cost"] {
            l.f64_of(key).ok_or(format!("locality: missing {key}"))?;
        }
        for key in ["migrated", "edges_recorded", "edges_distinct"] {
            l.u64_of(key).ok_or(format!("locality: missing {key}"))?;
        }
        if l.u64_of("migrated") == Some(0) {
            return Err("locality: stats-driven reorganization migrated nothing".into());
        }
        if l.f64_of("achieved_cost") >= l.f64_of("identity_cost") {
            return Err(format!(
                "locality: achieved cost {:?} did not improve on identity {:?}",
                l.f64_of("achieved_cost"),
                l.f64_of("identity_cost")
            ));
        }
    }
    Ok(())
}

// ----------------------------------------------------------- comparator --

/// Outcome of diffing a fresh run against the newest prior file.
#[derive(Debug, Default)]
pub struct Comparison {
    /// Human-readable per-cell delta lines, in matrix order.
    pub lines: Vec<String>,
    /// The subset that violates [`REGRESSION_RULE`].
    pub regressions: Vec<String>,
}

fn pct(old: f64, new: f64) -> f64 {
    if old.abs() < 1e-12 {
        0.0
    } else {
        (new - old) / old * 100.0
    }
}

/// Diff `current` (just produced) against `prior` (parsed from the newest
/// earlier `BENCH_*.json`). Cells are matched by (mpl, mode); cells
/// missing on either side are reported but never counted as regressions.
/// Runs with different fingerprints (including quick vs full) are
/// incomparable: the comparison says so and stays empty.
pub fn compare(prior: &Json, current: &Trajectory) -> Comparison {
    let mut cmp = Comparison::default();
    if prior.u64_of("schema_version") != Some(SCHEMA_VERSION) {
        cmp.lines.push(format!(
            "prior file has schema_version {:?}; not comparable to {SCHEMA_VERSION}",
            prior.u64_of("schema_version")
        ));
        return cmp;
    }
    let same_fingerprint = prior.get("fingerprint").is_some_and(|f| {
        f.get("quick") == Some(&Json::Bool(current.fingerprint.quick))
            // Files written before the backend field existed were all
            // memory-resident runs.
            && f.str_of("backend").unwrap_or("mem") == current.fingerprint.backend
            && f.u64_of("objs_per_partition")
                == Some(current.fingerprint.objs_per_partition)
            && f.u64_of("num_partitions") == Some(current.fingerprint.num_partitions)
            && f.u64_of("seed") == Some(current.fingerprint.seed)
    });
    if !same_fingerprint {
        cmp.lines
            .push("prior file ran a different workload fingerprint; skipping diff".into());
        return cmp;
    }
    let empty = Vec::new();
    let prior_cells = match prior.get("cells") {
        Some(Json::Arr(cells)) => cells,
        _ => &empty,
    };
    for c in &current.cells {
        let old = prior_cells.iter().find(|p| {
            p.u64_of("mpl") == Some(c.mpl as u64) && p.str_of("mode") == Some(c.mode)
        });
        let Some(old) = old else {
            cmp.lines
                .push(format!("mpl={} {}: new cell (no prior)", c.mpl, c.mode));
            continue;
        };
        let tag = format!("mpl={} {}", c.mpl, c.mode);
        let ops_old = old.f64_of("ops_per_sec").unwrap_or(0.0);
        let d_ops = pct(ops_old, c.ops_per_sec);
        let mut line = format!(
            "{tag}: ops/s {ops_old:.0} -> {:.0} ({d_ops:+.1}%)",
            c.ops_per_sec
        );
        if c.mode != "NR" {
            let reorg_old = old.f64_of("reorg_secs").unwrap_or(0.0);
            let d_reorg = pct(reorg_old, c.reorg_secs);
            let _ = write!(
                line,
                ", reorg {reorg_old:.2}s -> {:.2}s ({d_reorg:+.1}%)",
                c.reorg_secs
            );
            if d_reorg > 25.0 {
                cmp.regressions
                    .push(format!("{tag}: reorg wall-clock {d_reorg:+.1}%"));
            }
        }
        let p99_old = old.u64_of("p99_us").unwrap_or(0);
        let d_p99 = pct(p99_old as f64, c.p99_us as f64);
        let p999_old = old.u64_of("p999_us").unwrap_or(0);
        let d_p999 = pct(p999_old as f64, c.p999_us as f64);
        let _ = write!(
            line,
            ", p99 {p99_old}us -> {}us ({d_p99:+.1}%), p99.9 {p999_old}us -> {}us ({d_p999:+.1}%)",
            c.p99_us, c.p999_us
        );
        if d_ops < -10.0 {
            cmp.regressions.push(format!("{tag}: ops/s {d_ops:+.1}%"));
        }
        if d_p99 > 25.0 {
            cmp.regressions.push(format!("{tag}: p99 {d_p99:+.1}%"));
        }
        if d_p999 > 25.0 {
            cmp.regressions.push(format!("{tag}: p99.9 {d_p999:+.1}%"));
        }
        cmp.lines.push(line);
    }
    // Locality loop: diff only when both sides ran it (the field is
    // additive — prior files may predate it).
    match (prior.get("locality"), &current.locality) {
        (Some(old), Some(new)) => {
            let ops_old = old
                .get("post")
                .and_then(|w| w.f64_of("ops_per_sec"))
                .unwrap_or(0.0);
            let d_ops = pct(ops_old, new.post.ops_per_sec);
            let gain_old = old.f64_of("identity_cost").unwrap_or(0.0)
                - old.f64_of("achieved_cost").unwrap_or(0.0);
            let gain_new = new.identity_cost - new.achieved_cost;
            cmp.lines.push(format!(
                "locality: post ops/s {ops_old:.0} -> {:.0} ({d_ops:+.1}%), \
                 cost gain {gain_old:.0} -> {gain_new:.0}, hit rate {:.2} -> {:.2}",
                new.post.ops_per_sec,
                old.get("post").and_then(|w| w.f64_of("hit_rate")).unwrap_or(0.0),
                new.post.hit_rate,
            ));
            if d_ops < -10.0 {
                cmp.regressions
                    .push(format!("locality: post-reorg ops/s {d_ops:+.1}%"));
            }
        }
        (None, Some(_)) => cmp
            .lines
            .push("locality: new section (no prior to compare)".into()),
        (Some(_), None) => cmp.lines.push(
            "locality: prior file has the section but this run did not produce one; \
             cell diff above is still valid"
                .into(),
        ),
        (None, None) => {}
    }
    Comparison {
        lines: cmp.lines,
        regressions: cmp.regressions,
    }
}

// ------------------------------------------------------------ file mgmt --

/// All `BENCH_<n>.json` files in `dir`, sorted by `n` ascending.
pub fn bench_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(n) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<u64>().ok())
        {
            out.push((n, entry.path()));
        }
    }
    out.sort_by_key(|(n, _)| *n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trajectory {
        let mut cells = Vec::new();
        for mpl in MPLS {
            for (mode, _, _) in MODES {
                cells.push(TrajCell {
                    mpl,
                    mode,
                    ops_per_sec: 100.0 + mpl as f64,
                    reorg_secs: if mode == "NR" { 0.0 } else { 2.5 },
                    p99_us: 4_000,
                    p999_us: 16_000,
                    committed: 500,
                    aborted_attempts: 3,
                    migrated: if mode == "NR" { 0 } else { 1020 },
                    retries: 1,
                    deferred: 2,
                    throttle_pauses: 0,
                    lock_timeouts: 5,
                });
            }
        }
        Trajectory {
            fingerprint: Fingerprint {
                quick: true,
                backend: "mem",
                num_partitions: 8,
                objs_per_partition: 510,
                ops_per_trans: 10,
                update_prob: 0.2,
                seed: 42,
            },
            cells,
            locality: None,
        }
    }

    fn sample_locality() -> crate::locality::LocalityResult {
        use crate::locality::{LocalityResult, LocalityWindow};
        LocalityResult {
            pre: LocalityWindow {
                ops_per_sec: 80.0,
                p99_us: 9_000,
                committed: 300,
                hit_rate: 0.55,
            },
            post: LocalityWindow {
                ops_per_sec: 120.0,
                p99_us: 5_000,
                committed: 460,
                hit_rate: 0.85,
            },
            identity_cost: 4_000.0,
            planned_cost: 900.0,
            achieved_cost: 1_100.0,
            migrated: 680,
            edges_recorded: 12_000,
            edges_distinct: 700,
        }
    }

    #[test]
    fn json_round_trips_and_validates() {
        let t = sample();
        let text = t.to_json(6);
        let doc = parse_json(&text).expect("parses");
        assert_eq!(doc.u64_of("schema_version"), Some(SCHEMA_VERSION));
        assert_eq!(doc.u64_of("bench_index"), Some(6));
        validate(&doc).expect("validates");
        let Some(Json::Arr(cells)) = doc.get("cells") else {
            panic!("cells");
        };
        assert_eq!(cells.len(), 9);
        assert_eq!(cells[0].str_of("mode"), Some("NR"));
        assert_eq!(cells[0].u64_of("p999_us"), Some(16_000));
    }

    #[test]
    fn locality_section_round_trips_validates_and_compares() {
        let mut t = sample();
        t.locality = Some(sample_locality());
        let text = t.to_json(7);
        let doc = parse_json(&text).expect("parses");
        validate(&doc).expect("validates with locality");
        let l = doc.get("locality").expect("locality present");
        assert_eq!(l.u64_of("migrated"), Some(680));
        assert_eq!(l.get("post").unwrap().u64_of("p99_us"), Some(5_000));
        assert_eq!(l.f64_of("achieved_cost"), Some(1_100.0));

        // A file without the section still validates (additive field) and
        // the comparator reports it as new rather than diffing.
        let old = sample();
        let prior = parse_json(&old.to_json(6)).unwrap();
        validate(&prior).expect("validates without locality");
        let cmp = compare(&prior, &t);
        assert!(cmp.lines.iter().any(|l| l.contains("locality: new section")));
        assert!(cmp.regressions.is_empty());

        // Both sides present: diffed, and a post-reorg throughput collapse
        // is a regression.
        let prior = parse_json(&text).unwrap();
        let mut worse = t.clone();
        worse.locality.as_mut().unwrap().post.ops_per_sec = 30.0;
        let cmp = compare(&prior, &worse);
        assert!(cmp.lines.iter().any(|l| l.starts_with("locality: post ops/s")));
        assert!(cmp
            .regressions
            .iter()
            .any(|r| r.contains("post-reorg ops/s")));

        // A locality section that claims no improvement fails validation.
        let no_gain = text.replace("\"achieved_cost\": 1100.000", "\"achieved_cost\": 4100.000");
        let bad = parse_json(&no_gain).unwrap();
        assert!(validate(&bad)
            .unwrap_err()
            .contains("did not improve"));
    }

    #[test]
    fn comparator_diffs_across_missing_locality_sections_both_ways() {
        // Newer direction: prior lacks the section (BENCH_5/6-era file),
        // current has it — the cell diff must run, nothing regresses, and
        // the section is announced as new.
        let old = sample();
        let prior = parse_json(&old.to_json(6)).unwrap();
        let mut new = sample();
        new.locality = Some(sample_locality());
        let cmp = compare(&prior, &new);
        assert_eq!(
            cmp.lines.iter().filter(|l| l.starts_with("mpl=")).count(),
            9,
            "every cell still diffs"
        );
        assert!(cmp.lines.iter().any(|l| l.contains("locality: new section")));
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);

        // Older direction: prior has the section, current does not — the
        // diff must not refuse or fall silent; it names the absence.
        let mut old = sample();
        old.locality = Some(sample_locality());
        let prior = parse_json(&old.to_json(7)).unwrap();
        let new = sample();
        let cmp = compare(&prior, &new);
        assert_eq!(
            cmp.lines.iter().filter(|l| l.starts_with("mpl=")).count(),
            9,
            "every cell still diffs"
        );
        assert!(
            cmp.lines
                .iter()
                .any(|l| l.contains("did not produce one")),
            "{:?}",
            cmp.lines
        );
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
    }

    #[test]
    fn validator_rejects_non_monotone_quantiles_and_empty_cells() {
        let t = sample();
        let doc = parse_json(&t.to_json(1)).unwrap();
        // Break p99 monotonicity in a copy of the text.
        let broken = t.to_json(1).replace("\"p999_us\": 16000", "\"p999_us\": 10");
        let bad = parse_json(&broken).unwrap();
        assert!(validate(&doc).is_ok());
        assert!(validate(&bad).unwrap_err().contains("p99 > p99.9"));
        let no_commits = t
            .to_json(1)
            .replace("\"committed\": 500", "\"committed\": 0");
        let bad = parse_json(&no_commits).unwrap();
        assert!(validate(&bad).unwrap_err().contains("no committed"));
    }

    #[test]
    fn comparator_flags_regressions_but_not_improvements() {
        let old = sample();
        let prior = parse_json(&old.to_json(5)).unwrap();
        let mut new = sample();
        for c in &mut new.cells {
            c.ops_per_sec *= 1.5; // improvement
            c.reorg_secs *= 0.5; // improvement
        }
        let cmp = compare(&prior, &new);
        assert!(cmp.regressions.is_empty(), "{:?}", cmp.regressions);
        assert_eq!(cmp.lines.len(), 9);

        let mut worse = sample();
        for c in &mut worse.cells {
            c.ops_per_sec *= 0.5;
            c.p999_us *= 10;
        }
        let cmp = compare(&prior, &worse);
        assert!(cmp.regressions.iter().any(|r| r.contains("ops/s")));
        assert!(cmp.regressions.iter().any(|r| r.contains("p99.9")));
    }

    #[test]
    fn comparator_refuses_mismatched_fingerprints() {
        let old = sample();
        let prior = parse_json(&old.to_json(5)).unwrap();
        let mut full = sample();
        full.fingerprint.quick = false;
        let cmp = compare(&prior, &full);
        assert!(cmp.regressions.is_empty());
        assert_eq!(cmp.lines.len(), 1);
        assert!(cmp.lines[0].contains("different workload fingerprint"));
    }

    #[test]
    fn bench_files_sort_numerically() {
        let dir = std::env::temp_dir().join(format!("traj-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for n in [10u64, 2, 6] {
            std::fs::write(dir.join(format!("BENCH_{n}.json")), "{}").unwrap();
        }
        std::fs::write(dir.join("BENCH_x.json"), "{}").unwrap();
        std::fs::write(dir.join("notes.txt"), "").unwrap();
        let files: Vec<u64> = bench_files(&dir).into_iter().map(|(n, _)| n).collect();
        assert_eq!(files, vec![2, 6, 10]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let doc = parse_json(r#"{"a": [1, -2.5, true, null], "b": {"c": "x\"y"}}"#)
            .expect("parses");
        assert_eq!(doc.get("a"), Some(&Json::Arr(vec![
            Json::Num(1.0),
            Json::Num(-2.5),
            Json::Bool(true),
            Json::Null,
        ])));
        assert_eq!(doc.get("b").unwrap().str_of("c"), Some("x\"y"));
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("[1 2]").is_err());
    }
}
