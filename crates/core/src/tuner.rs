//! Online adaptive auto-tuner: measured kernel selection for
//! [`SchedPolicy::Auto`]/[`DataPath::Auto`] dispatch.
//!
//! The static `Auto` heuristics ([`STRIPE_SKEW_THRESHOLD`],
//! [`STRIPE_MIN_DIM`](crate::tuning::STRIPE_MIN_DIM), the panel model)
//! encode measurements taken on *one* machine over *one* graph suite.
//! The paper's own argument — the right SpMM strategy is a function of
//! the input's degree distribution — cuts against trusting them
//! everywhere, and HC-SpMM/Accel-GCN both win by *selecting* kernels
//! from measured input features instead. This module closes that loop
//! on live traffic:
//!
//! 1. Every cached plan gets a pruned **configuration arm space**
//!    ([`arm_space`]): scheduling policy × data path × panel candidates
//!    that are plausible for the plan's [`GraphFingerprint`] (size,
//!    span skew, dense dimension, gather-bound fraction, workers).
//! 2. A **successive-halving explorer** ([`PlanTuner`]) measures each
//!    surviving arm [`TUNE_MEASURES_PER_ARM`] times per round on real
//!    executions (wall time around the engine's `run`), halves the
//!    field by best observed time, and converges on the last survivor.
//!    Exploration cost is the *excess* over the incumbent best arm and
//!    is tracked per engine in
//!    [`EngineStats::tuner`](crate::EngineStats).
//! 3. The converged verdict is written back through the engine into the
//!    process-level [`AutoTuner`] table — keyed by fingerprint, so the
//!    *next* plan with the same shape class starts converged — and
//!    optionally **persisted to disk** (versioned text table) so warm
//!    restarts skip exploration entirely.
//!
//! Correctness is untouched by construction: every arm selects among
//! execution strategies the engine already exposes and the oracle
//! suites already pin — the tuner changes *which* of the equivalent
//! strategies runs, never what any of them computes. In particular the
//! arm space **never** contains a FastMath arm unless the engine
//! explicitly opted in via
//! [`ExecEngine::with_fast_math`](crate::ExecEngine::with_fast_math) or
//! `MPSPMM_FASTMATH` — the bit-equality contract of DESIGN.md §2.11
//! survives tuning verbatim.
//!
//! # Knobs
//!
//! Two environment variables, read once per process like every other
//! engine knob: `MPSPMM_TUNE` (any value but `0`) attaches a
//! process-wide [`AutoTuner`] to every engine that does not carry an
//! explicit one, and `MPSPMM_CALIB_PATH` points that tuner's
//! calibration table at a file. Corrupt or version-mismatched tables
//! are **ignored with a one-time warning** (the `resolve_workers`
//! fallback idiom), never a panic — a calibration file is a perf hint,
//! not an input.
//!
//! [`SchedPolicy::Auto`]: crate::SchedPolicy
//! [`DataPath::Auto`]: crate::DataPath
//! [`STRIPE_SKEW_THRESHOLD`]: crate::tuning::STRIPE_SKEW_THRESHOLD

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::datapath::DataPath;
use crate::engine::SchedPolicy;
use crate::tuning::{
    TUNE_HALF_PANEL_MIN_DIM, TUNE_MEASURES_PER_ARM, TUNE_STRIPE_MIN_DIM, TUNE_TILED_MAX_DIM,
};

/// Header line of the on-disk calibration table. The version is part of
/// the header: a future format change bumps it and old files are
/// ignored (with a warning) instead of being misparsed.
pub const CALIB_HEADER: &str = "mpspmm-calib v1";

/// Quantized shape class of a prepared plan — the key the calibration
/// table generalizes over. Quantization is deliberate: two graphs of
/// the same order of magnitude, the same skew regime, and the same
/// dense dimension almost always want the same arm, and coarse keys let
/// a warm table cover a *family* of graphs, not one exact matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphFingerprint {
    /// `floor(log2(rows))` (0 for an empty matrix).
    pub rows_log2: u8,
    /// `floor(log2(nnz))` (0 for an empty plan).
    pub nnz_log2: u8,
    /// Exact dense dimension — the single biggest routing signal, never
    /// quantized.
    pub dim: u32,
    /// Static-span skew in saturating eighth-steps above 1.0:
    /// `round((skew − 1) × 8)` clamped to `u8`. The heuristic threshold
    /// 1.25 sits at step 2.
    pub skew_q: u8,
    /// Gather-bound fraction of the plan's non-empty segments in
    /// deciles (0–10).
    pub gather_q: u8,
    /// Effective worker parallelism (saturating at 255).
    pub workers: u8,
}

impl GraphFingerprint {
    /// Builds the fingerprint from raw plan features. `gather` and
    /// `stream` are the degree-adaptive dispatch counts
    /// ([`PreparedPlan::dispatch_profile`](crate::PreparedPlan::dispatch_profile)).
    pub fn from_features(
        rows: usize,
        nnz: usize,
        dim: usize,
        skew: f64,
        gather: usize,
        stream: usize,
        workers: usize,
    ) -> Self {
        let log2 = |v: usize| -> u8 {
            if v == 0 {
                0
            } else {
                (usize::BITS - 1 - v.leading_zeros()).min(255) as u8
            }
        };
        let skew_q = if skew.is_finite() && skew > 1.0 {
            ((skew - 1.0) * 8.0).round().min(255.0) as u8
        } else {
            0
        };
        let segs = gather + stream;
        let gather_q = if segs == 0 {
            0
        } else {
            ((gather as f64 / segs as f64) * 10.0).round() as u8
        };
        Self {
            rows_log2: log2(rows),
            nnz_log2: log2(nnz),
            dim: dim.min(u32::MAX as usize) as u32,
            skew_q,
            gather_q,
            workers: workers.min(255) as u8,
        }
    }

    /// Lower bound of the raw skew this fingerprint's `skew_q` encodes.
    pub fn skew_lower_bound(&self) -> f64 {
        1.0 + self.skew_q as f64 / 8.0
    }
}

/// One point of the tuner's configuration space: a complete routing
/// decision the engine can execute a prepared plan with. Arms only name
/// strategies the engine already exposes — `sched` is never
/// [`SchedPolicy::Auto`] and `path` is never [`DataPath::Auto`] (except
/// under the `force-scalar` build, where `Auto` *is* the scalar pin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmConfig {
    /// Scheduling policy this arm routes the run through.
    pub sched: SchedPolicy,
    /// Inner data path this arm resolves segments with.
    pub path: DataPath,
    /// Halve the resolved column panel (lane-aligned) — the panel-model
    /// candidate dimension of the space.
    pub half_panel: bool,
    /// Request FMA contraction. **Never `true` in any arm space unless
    /// the engine explicitly opted into FastMath** (DESIGN.md §2.11).
    pub fast_math: bool,
}

impl ArmConfig {
    /// Compact text form for the calibration table and log lines, e.g.
    /// `static/vector` or `stripe/vector/half`.
    pub fn label(&self) -> String {
        let mut s = format!("{}/{}", sched_token(self.sched), path_token(self.path));
        if self.half_panel {
            s.push_str("/half");
        }
        if self.fast_math {
            s.push_str("/fm");
        }
        s
    }
}

fn sched_token(p: SchedPolicy) -> &'static str {
    match p {
        SchedPolicy::Static => "static",
        SchedPolicy::ColumnStriped => "stripe",
        SchedPolicy::Auto => "auto",
    }
}

fn parse_sched(tok: &str) -> Option<SchedPolicy> {
    match tok {
        "static" => Some(SchedPolicy::Static),
        "stripe" => Some(SchedPolicy::ColumnStriped),
        _ => None,
    }
}

fn path_token(p: DataPath) -> &'static str {
    match p {
        DataPath::Auto => "auto",
        DataPath::Scalar => "scalar",
        DataPath::Tiled => "tiled",
        DataPath::Vector => "vector",
    }
}

fn parse_path(tok: &str) -> Option<DataPath> {
    match tok {
        "auto" => Some(DataPath::Auto),
        "scalar" => Some(DataPath::Scalar),
        "tiled" => Some(DataPath::Tiled),
        "vector" => Some(DataPath::Vector),
        _ => None,
    }
}

/// The arm the static heuristics would pick for `fp` — seeded first in
/// the space so the explorer's earliest measurements cover the
/// incumbent and exploration excess stays small on shapes the
/// heuristics already get right.
fn heuristic_arm(fp: &GraphFingerprint, path: DataPath) -> ArmConfig {
    ArmConfig {
        sched: SchedPolicy::auto_choice(
            fp.workers as usize,
            fp.dim as usize,
            fp.skew_lower_bound(),
        ),
        path,
        half_panel: false,
        fast_math: false,
    }
}

/// Builds the pruned configuration arm space for a plan with fingerprint
/// `fp` on an engine configured with (`policy`, `path`, `fast_math`).
///
/// Pruning rules:
///
/// * A pinned (non-`Auto`) `policy` or `path` restricts its axis to the
///   pin — pinning both degenerates to a single arm, which converges
///   instantly and costs zero exploration.
/// * Striped arms need ≥ 2 workers and `dim ≥` [`TUNE_STRIPE_MIN_DIM`].
/// * Tiled-path arms appear only at `dim ≤` [`TUNE_TILED_MAX_DIM`];
///   half-panel variants only at `dim ≥` [`TUNE_HALF_PANEL_MIN_DIM`]
///   (and only on vector-family paths, where the panel exists).
/// * `fast_math` arms appear **only** when the engine opted in — with
///   FastMath off every arm is exact and the DESIGN.md §2.11
///   bit-equality contract holds over the whole space. A FastMath
///   engine explores FastMath on its vector arms (matching what its
///   untuned runs would do) and never on scalar/tiled ones.
/// * Under the `force-scalar` build the path axis collapses to
///   [`DataPath::Auto`] (which resolves scalar there).
///
/// The heuristic incumbent ([`SchedPolicy::Auto`]'s static choice) is
/// always first. The space is never empty.
pub fn arm_space(
    fp: &GraphFingerprint,
    policy: SchedPolicy,
    path: DataPath,
    fast_math: bool,
) -> Vec<ArmConfig> {
    let dim = fp.dim as usize;
    let multi = fp.workers >= 2;
    let scheds: Vec<SchedPolicy> = match policy {
        SchedPolicy::Auto => {
            let mut s = vec![SchedPolicy::Static];
            if multi && dim >= TUNE_STRIPE_MIN_DIM {
                s.push(SchedPolicy::ColumnStriped);
            }
            s
        }
        pinned => vec![pinned],
    };
    let paths: Vec<DataPath> = match path {
        DataPath::Auto => {
            if cfg!(feature = "force-scalar") {
                vec![DataPath::Auto]
            } else {
                let mut p = vec![DataPath::Vector];
                if dim <= TUNE_TILED_MAX_DIM {
                    p.push(DataPath::Tiled);
                }
                p
            }
        }
        pinned => vec![pinned],
    };
    let vector_family = |p: DataPath| matches!(p, DataPath::Vector | DataPath::Auto);
    let incumbent = match policy {
        SchedPolicy::Auto => heuristic_arm(fp, paths[0]),
        pinned => ArmConfig {
            sched: pinned,
            path: paths[0],
            half_panel: false,
            fast_math: false,
        },
    };
    let mut arms = vec![incumbent];
    let push = |arm: ArmConfig, arms: &mut Vec<ArmConfig>| {
        if !arms.contains(&arm) {
            arms.push(arm);
        }
    };
    for &s in &scheds {
        for &p in &paths {
            let fm = fast_math && vector_family(p);
            push(
                ArmConfig {
                    sched: s,
                    path: p,
                    half_panel: false,
                    fast_math: fm,
                },
                &mut arms,
            );
            if vector_family(p) && dim >= TUNE_HALF_PANEL_MIN_DIM {
                push(
                    ArmConfig {
                        sched: s,
                        path: p,
                        half_panel: true,
                        fast_math: fm,
                    },
                    &mut arms,
                );
            }
        }
    }
    // The FastMath engine's incumbent mirrors its untuned behavior
    // (vector runs contract); replace the seeded exact incumbent so the
    // space never mixes exact and contracted variants of the same arm.
    if fast_math && vector_family(arms[0].path) {
        arms[0].fast_math = true;
        arms.dedup();
    }
    arms
}

/// The SpGEMM accumulator arm family a tuner-carrying engine explores
/// for one shape class (see `crate::spgemm`): the
/// [`Adaptive`](crate::SpgemmStrategy::Adaptive) heuristic incumbent
/// first — so a tie converges to exactly what an untuned engine runs —
/// then the three forced families. Degenerate classes (zero output
/// width: nothing to accumulate) collapse to the incumbent alone.
/// Every arm is bit-identical to every other; the explorer only ranks
/// their numeric-phase time.
pub fn spgemm_arm_space(fp: &GraphFingerprint) -> Vec<crate::SpgemmStrategy> {
    use crate::SpgemmStrategy as S;
    if fp.dim == 0 || fp.nnz_log2 == 0 {
        return vec![S::Adaptive];
    }
    vec![S::Adaptive, S::Merge, S::Hash, S::Dense]
}

/// What one engine run should execute and whether its wall time feeds
/// the explorer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArmTicket {
    /// The configuration to execute with.
    pub arm: ArmConfig,
    /// Index into the tuner's arm vector, echoed back to
    /// [`PlanTuner::observe`].
    pub idx: usize,
    /// `true` while exploring (caller times the run and observes);
    /// `false` once converged (steady state, zero timing overhead).
    pub explore: bool,
}

/// What an observation did to the explorer's state.
#[derive(Debug, Default)]
pub(crate) struct Observation {
    /// Nanoseconds this run spent over the incumbent best arm — the
    /// exploration overhead charged to the tuner.
    pub excess_ns: u64,
    /// Set exactly once, on the observation that left a single
    /// surviving arm.
    pub newly_converged: Option<ArmConfig>,
}

/// Convergence status of one plan's explorer, as reported by
/// [`PreparedPlan::tune_state`](crate::PreparedPlan::tune_state).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TuneState {
    /// Still measuring: `surviving` of `total` arms remain after the
    /// halving rounds so far.
    Exploring {
        /// Arms the space started with.
        total: usize,
        /// Arms still in the running.
        surviving: usize,
        /// Measured executions taken so far.
        explorations: u64,
    },
    /// A winner was picked (or inherited from a warm calibration
    /// table); all further runs execute `arm` untimed.
    Converged {
        /// The winning configuration.
        arm: ArmConfig,
        /// Measured executions it took to get here (0 for a warm
        /// start).
        explorations: u64,
    },
}

impl TuneState {
    /// Whether exploration has finished.
    pub fn is_converged(&self) -> bool {
        matches!(self, TuneState::Converged { .. })
    }
}

#[derive(Debug)]
struct ExploreState {
    arms: Vec<ArmConfig>,
    /// Indices into `arms` still in the running, in rank order.
    alive: Vec<usize>,
    /// Best observed wall time per arm (`u64::MAX` until measured).
    best_ns: Vec<u64>,
    /// Measurements started / completed for each arm in the current
    /// halving round.
    begun: Vec<u32>,
    observed: Vec<u32>,
    cursor: usize,
    converged: Option<usize>,
    explorations: u64,
    excess_ns: u64,
}

/// Per-plan explorer: hands out [`ArmTicket`]s round-robin over the
/// surviving arms, halves the field each round by best observed time,
/// and freezes on the last survivor. All state sits behind one mutex
/// taken twice per *exploring* run and once per steady-state run —
/// noise next to an SpMM execution.
#[derive(Debug)]
pub(crate) struct PlanTuner {
    fp: GraphFingerprint,
    state: Mutex<ExploreState>,
}

impl PlanTuner {
    /// A fresh explorer over `arms` (non-empty; a single arm converges
    /// immediately).
    pub(crate) fn exploring(fp: GraphFingerprint, arms: Vec<ArmConfig>) -> Self {
        assert!(!arms.is_empty(), "arm space is never empty");
        let n = arms.len();
        Self {
            fp,
            state: Mutex::new(ExploreState {
                arms,
                alive: (0..n).collect(),
                best_ns: vec![u64::MAX; n],
                begun: vec![0; n],
                observed: vec![0; n],
                cursor: 0,
                converged: if n == 1 { Some(0) } else { None },
                explorations: 0,
                excess_ns: 0,
            }),
        }
    }

    /// A pre-converged explorer seeded from a calibration-table verdict
    /// (`winner` must be a member of `arms`).
    pub(crate) fn warm(fp: GraphFingerprint, winner: ArmConfig, arms: Vec<ArmConfig>) -> Self {
        let pos = arms
            .iter()
            .position(|a| *a == winner)
            .expect("warm verdict validated against the arm space");
        let tuner = Self::exploring(fp, arms);
        {
            let mut st = tuner.state.lock().unwrap();
            st.alive = vec![pos];
            st.converged = Some(pos);
        }
        tuner
    }

    /// The fingerprint this explorer's verdict files under.
    pub(crate) fn fingerprint(&self) -> GraphFingerprint {
        self.fp
    }

    /// Picks the arm for the next run.
    pub(crate) fn begin(&self) -> ArmTicket {
        let mut st = self.state.lock().unwrap();
        if let Some(i) = st.converged {
            return ArmTicket {
                arm: st.arms[i],
                idx: i,
                explore: false,
            };
        }
        let n = st.alive.len();
        for _ in 0..n {
            let i = st.alive[st.cursor % n];
            st.cursor = (st.cursor + 1) % n;
            if st.begun[i] < TUNE_MEASURES_PER_ARM {
                st.begun[i] += 1;
                st.explorations += 1;
                return ArmTicket {
                    arm: st.arms[i],
                    idx: i,
                    explore: true,
                };
            }
        }
        // Round fully dealt but observations still in flight on other
        // threads: measure the current front-runner once more (extra
        // samples only tighten its minimum).
        let i = st
            .alive
            .iter()
            .copied()
            .min_by_key(|&i| st.best_ns[i])
            .unwrap_or(0);
        st.explorations += 1;
        ArmTicket {
            arm: st.arms[i],
            idx: i,
            explore: true,
        }
    }

    /// Feeds one measured execution back. `idx` is the ticket's arm
    /// index; `ns` its wall time.
    pub(crate) fn observe(&self, idx: usize, ns: u64) -> Observation {
        let mut st = self.state.lock().unwrap();
        if st.converged.is_some() || idx >= st.arms.len() {
            return Observation::default();
        }
        st.best_ns[idx] = st.best_ns[idx].min(ns.max(1));
        st.observed[idx] = st.observed[idx].saturating_add(1);
        let best = st
            .alive
            .iter()
            .map(|&i| st.best_ns[i])
            .min()
            .unwrap_or(u64::MAX);
        let excess = if best == u64::MAX {
            0
        } else {
            ns.saturating_sub(best)
        };
        st.excess_ns += excess;
        let round_done = st
            .alive
            .iter()
            .all(|&i| st.observed[i] >= TUNE_MEASURES_PER_ARM && st.best_ns[i] != u64::MAX);
        let mut obs = Observation {
            excess_ns: excess,
            newly_converged: None,
        };
        if round_done {
            let mut ranked = st.alive.clone();
            ranked.sort_by_key(|&i| st.best_ns[i]);
            let keep = ranked
                .len()
                .div_ceil(2)
                .min(ranked.len().saturating_sub(1))
                .max(1);
            ranked.truncate(keep);
            st.alive = ranked;
            for i in 0..st.arms.len() {
                st.begun[i] = 0;
                st.observed[i] = 0;
            }
            st.cursor = 0;
            if st.alive.len() == 1 {
                let w = st.alive[0];
                st.converged = Some(w);
                obs.newly_converged = Some(st.arms[w]);
            }
        }
        obs
    }

    /// The winning arm, once exploration finished.
    pub(crate) fn converged_arm(&self) -> Option<ArmConfig> {
        let st = self.state.lock().unwrap();
        st.converged.map(|i| st.arms[i])
    }

    /// Public status snapshot.
    pub(crate) fn status(&self) -> TuneState {
        let st = self.state.lock().unwrap();
        match st.converged {
            Some(i) => TuneState::Converged {
                arm: st.arms[i],
                explorations: st.explorations,
            },
            None => TuneState::Exploring {
                total: st.arms.len(),
                surviving: st.alive.len(),
                explorations: st.explorations,
            },
        }
    }
}

fn encode_line(fp: &GraphFingerprint, arm: &ArmConfig) -> String {
    format!(
        "{} {} {} {} {} {} {} {} {} {}",
        fp.rows_log2,
        fp.nnz_log2,
        fp.dim,
        fp.skew_q,
        fp.gather_q,
        fp.workers,
        sched_token(arm.sched),
        path_token(arm.path),
        u8::from(arm.half_panel),
        u8::from(arm.fast_math),
    )
}

fn decode_line(line: &str) -> Option<(GraphFingerprint, ArmConfig)> {
    let mut it = line.split_whitespace();
    let fp = GraphFingerprint {
        rows_log2: it.next()?.parse().ok()?,
        nnz_log2: it.next()?.parse().ok()?,
        dim: it.next()?.parse().ok()?,
        skew_q: it.next()?.parse().ok()?,
        gather_q: it.next()?.parse().ok()?,
        workers: it.next()?.parse().ok()?,
    };
    let sched = parse_sched(it.next()?)?;
    let path = parse_path(it.next()?)?;
    let half_panel = match it.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let fast_math = match it.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    if it.next().is_some() {
        return None;
    }
    Some((
        fp,
        ArmConfig {
            sched,
            path,
            half_panel,
            fast_math,
        },
    ))
}

/// Parses the text form of a calibration table. `Err` carries the
/// human-readable reason the whole file is rejected (wrong header /
/// version, malformed entry) — callers warn once and start cold.
pub(crate) fn parse_calibration(
    text: &str,
) -> Result<HashMap<GraphFingerprint, ArmConfig>, String> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("").trim();
    if header != CALIB_HEADER {
        return Err(format!(
            "unsupported header {header:?} (expected {CALIB_HEADER:?})"
        ));
    }
    let mut table = HashMap::new();
    for (i, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match decode_line(line) {
            Some((fp, arm)) => {
                table.insert(fp, arm);
            }
            None => return Err(format!("malformed entry at line {}", i + 2)),
        }
    }
    Ok(table)
}

/// The process-level calibration table: converged verdicts keyed by
/// [`GraphFingerprint`], shared by every plan an engine tunes and
/// (optionally) persisted to a versioned text file so warm restarts
/// skip exploration. Attach one to an engine with
/// [`ExecEngine::with_autotuner`](crate::ExecEngine::with_autotuner) or
/// process-wide via `MPSPMM_TUNE`/`MPSPMM_CALIB_PATH`.
#[derive(Debug)]
pub struct AutoTuner {
    path: Option<PathBuf>,
    table: Mutex<HashMap<GraphFingerprint, ArmConfig>>,
    warned_write: AtomicBool,
}

impl AutoTuner {
    /// A tuner whose table lives only in this process.
    pub fn in_memory() -> Self {
        Self {
            path: None,
            table: Mutex::new(HashMap::new()),
            warned_write: AtomicBool::new(false),
        }
    }

    /// A tuner backed by the calibration file at `path`: existing
    /// verdicts are loaded now (a missing file starts cold silently; a
    /// corrupt or version-mismatched one starts cold with a one-time
    /// warning) and every new verdict is written through.
    pub fn with_path(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let table = match std::fs::read_to_string(&path) {
            Ok(text) => match parse_calibration(&text) {
                Ok(table) => table,
                Err(reason) => {
                    eprintln!(
                        "mpspmm-core: ignoring calibration table {}: {reason}; starting cold",
                        path.display()
                    );
                    HashMap::new()
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => HashMap::new(),
            Err(e) => {
                eprintln!(
                    "mpspmm-core: cannot read calibration table {}: {e}; starting cold",
                    path.display()
                );
                HashMap::new()
            }
        };
        Self {
            path: Some(path),
            table: Mutex::new(table),
            warned_write: AtomicBool::new(false),
        }
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Looks up the converged arm for a fingerprint. Callers must
    /// validate the result against their current [`arm_space`] — a
    /// table written by a FastMath-enabled process, say, may hold arms
    /// a default engine is not allowed to run.
    pub fn lookup(&self, fp: &GraphFingerprint) -> Option<ArmConfig> {
        self.table.lock().unwrap().get(fp).copied()
    }

    /// Records a converged verdict, writing the table through to the
    /// backing file (if any). Re-recording an unchanged verdict is a
    /// no-op.
    pub fn record(&self, fp: GraphFingerprint, arm: ArmConfig) {
        let mut table = self.table.lock().unwrap();
        if table.get(&fp) == Some(&arm) {
            return;
        }
        table.insert(fp, arm);
        self.persist(&table);
    }

    /// Number of verdicts in the table.
    pub fn len(&self) -> usize {
        self.table.lock().unwrap().len()
    }

    /// Whether the table holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of every (fingerprint, verdict) pair, unordered.
    pub fn entries(&self) -> Vec<(GraphFingerprint, ArmConfig)> {
        self.table
            .lock()
            .unwrap()
            .iter()
            .map(|(fp, arm)| (*fp, *arm))
            .collect()
    }

    fn persist(&self, table: &HashMap<GraphFingerprint, ArmConfig>) {
        let Some(path) = &self.path else { return };
        let mut lines: Vec<String> = table.iter().map(|(fp, arm)| encode_line(fp, arm)).collect();
        lines.sort_unstable();
        let mut text = String::with_capacity(CALIB_HEADER.len() + 1 + lines.len() * 40);
        text.push_str(CALIB_HEADER);
        text.push('\n');
        for l in &lines {
            text.push_str(l);
            text.push('\n');
        }
        let tmp = path.with_extension("calib-tmp");
        let wrote = (|| -> std::io::Result<()> {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            std::fs::write(&tmp, text.as_bytes())?;
            std::fs::rename(&tmp, path)
        })();
        if let Err(e) = wrote {
            if !self.warned_write.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "mpspmm-core: cannot persist calibration table {}: {e}; continuing in-memory",
                    path.display()
                );
            }
        }
    }
}

/// The process-wide tuner `MPSPMM_TUNE`/`MPSPMM_CALIB_PATH` configure,
/// attached by default to every engine built without an explicit one.
/// Resolved once per process like every other engine knob.
pub(crate) fn env_autotuner() -> Option<Arc<AutoTuner>> {
    static TUNER: OnceLock<Option<Arc<AutoTuner>>> = OnceLock::new();
    TUNER
        .get_or_init(|| {
            let on = std::env::var_os("MPSPMM_TUNE").is_some_and(|v| v != "0");
            if !on {
                return None;
            }
            Some(Arc::new(match std::env::var_os("MPSPMM_CALIB_PATH") {
                Some(p) if !p.is_empty() => AutoTuner::with_path(PathBuf::from(p)),
                _ => AutoTuner::in_memory(),
            }))
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(dim: u32, skew_q: u8, workers: u8) -> GraphFingerprint {
        GraphFingerprint {
            rows_log2: 10,
            nnz_log2: 13,
            dim,
            skew_q,
            gather_q: 5,
            workers,
        }
    }

    #[test]
    fn fingerprint_quantization() {
        let f = GraphFingerprint::from_features(1000, 8000, 64, 1.26, 30, 10, 4);
        assert_eq!(f.rows_log2, 9);
        assert_eq!(f.nnz_log2, 12);
        assert_eq!(f.dim, 64);
        assert_eq!(f.skew_q, 2); // (1.26 - 1) * 8 = 2.08 → 2
        assert_eq!(f.gather_q, 8); // 30/40 = 0.75 → 8
        assert_eq!(f.workers, 4);
        // Degenerate inputs saturate, never panic.
        let z = GraphFingerprint::from_features(0, 0, 0, f64::NAN, 0, 0, 500);
        assert_eq!(
            (z.rows_log2, z.nnz_log2, z.skew_q, z.gather_q),
            (0, 0, 0, 0)
        );
        assert_eq!(z.workers, 255);
    }

    #[test]
    fn arm_space_never_contains_fastmath_by_default() {
        // The satellite regression: no engine configuration that did
        // not *explicitly* opt into FastMath may see a FastMath arm,
        // across the whole fingerprint space.
        for dim in [1u32, 16, 32, 64, 128, 512] {
            for skew_q in [0u8, 1, 2, 8] {
                for workers in [1u8, 2, 8] {
                    for policy in [
                        SchedPolicy::Auto,
                        SchedPolicy::Static,
                        SchedPolicy::ColumnStriped,
                    ] {
                        for path in [DataPath::Auto, DataPath::Vector, DataPath::Tiled] {
                            let arms = arm_space(&fp(dim, skew_q, workers), policy, path, false);
                            assert!(!arms.is_empty());
                            assert!(
                                arms.iter().all(|a| !a.fast_math),
                                "fastmath arm leaked into a non-fastmath space: {arms:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn arm_space_fastmath_only_on_vector_family_when_opted_in() {
        let arms = arm_space(&fp(64, 2, 4), SchedPolicy::Auto, DataPath::Auto, true);
        for a in &arms {
            if cfg!(feature = "force-scalar") {
                continue;
            }
            assert_eq!(
                a.fast_math,
                matches!(a.path, DataPath::Vector | DataPath::Auto),
                "fastmath must track the vector family: {a:?}"
            );
        }
    }

    #[test]
    fn arm_space_prunes_by_fingerprint() {
        // One worker: no striping.
        let arms = arm_space(&fp(128, 8, 1), SchedPolicy::Auto, DataPath::Auto, false);
        assert!(arms.iter().all(|a| a.sched == SchedPolicy::Static));
        // No tiled arm above the cutoff.
        let arms = arm_space(&fp(64, 0, 4), SchedPolicy::Auto, DataPath::Auto, false);
        if !cfg!(feature = "force-scalar") {
            assert!(arms.iter().all(|a| a.path != DataPath::Tiled));
        }
        // A skewed narrow multi-worker plan stays static: merge-path
        // spans need no runtime balancing, and the dim is too narrow to
        // stripe. Wide dims add the striped arm.
        let arms = arm_space(&fp(16, 8, 4), SchedPolicy::Auto, DataPath::Auto, false);
        assert!(arms.iter().all(|a| a.sched == SchedPolicy::Static));
        let arms = arm_space(&fp(256, 0, 4), SchedPolicy::Auto, DataPath::Auto, false);
        assert!(arms.iter().any(|a| a.sched == SchedPolicy::ColumnStriped));
        // The heuristic incumbent leads the space.
        assert_eq!(arms[0].sched, SchedPolicy::ColumnStriped);
    }

    #[test]
    fn pinned_axes_collapse_the_space() {
        let arms = arm_space(&fp(16, 8, 8), SchedPolicy::Static, DataPath::Scalar, false);
        assert_eq!(arms.len(), 1);
        assert_eq!(arms[0].sched, SchedPolicy::Static);
        assert_eq!(arms[0].path, DataPath::Scalar);
        let t = PlanTuner::exploring(fp(16, 8, 8), arms);
        // A one-arm space is converged before the first run.
        assert!(t.status().is_converged());
        assert!(!t.begin().explore);
    }

    #[test]
    fn successive_halving_converges_to_fastest_arm() {
        let arms = arm_space(&fp(256, 2, 4), SchedPolicy::Auto, DataPath::Auto, false);
        assert!(arms.len() >= 3, "want a real field: {arms:?}");
        let t = PlanTuner::exploring(fp(256, 2, 4), arms.clone());
        // Deterministic synthetic costs: arm i takes 100 + 17*i µs,
        // except the last arm which is fastest.
        let cost = |i: usize| -> u64 {
            if i == arms.len() - 1 {
                50_000
            } else {
                100_000 + 17_000 * i as u64
            }
        };
        let mut runs = 0u32;
        loop {
            let ticket = t.begin();
            if !ticket.explore {
                break;
            }
            let obs = t.observe(ticket.idx, cost(ticket.idx));
            runs += 1;
            assert!(runs < 200, "explorer failed to converge");
            if obs.newly_converged.is_some() {
                break;
            }
        }
        let won = t.converged_arm().expect("converged");
        assert_eq!(won, arms[arms.len() - 1], "fastest arm must win");
        // Converged runs are free: no exploration flag, stable arm.
        let steady = t.begin();
        assert!(!steady.explore);
        assert_eq!(steady.arm, won);
        match t.status() {
            TuneState::Converged { arm, explorations } => {
                assert_eq!(arm, won);
                assert_eq!(explorations as u32, runs);
            }
            s => panic!("expected converged, got {s:?}"),
        }
    }

    #[test]
    fn warm_tuner_skips_exploration() {
        let arms = arm_space(&fp(128, 0, 4), SchedPolicy::Auto, DataPath::Auto, false);
        let winner = arms[arms.len() - 1];
        let t = PlanTuner::warm(fp(128, 0, 4), winner, arms);
        let ticket = t.begin();
        assert!(!ticket.explore);
        assert_eq!(ticket.arm, winner);
        assert_eq!(
            t.status(),
            TuneState::Converged {
                arm: winner,
                explorations: 0
            }
        );
    }

    #[test]
    fn calibration_roundtrip() {
        let dir = std::env::temp_dir().join(format!("mpspmm-tuner-rt-{}", std::process::id()));
        let path = dir.join("table.calib");
        let _ = std::fs::remove_dir_all(&dir);
        let tuner = AutoTuner::with_path(&path);
        assert!(tuner.is_empty());
        let f1 = fp(64, 2, 4);
        let f2 = fp(256, 0, 8);
        let a1 = ArmConfig {
            sched: SchedPolicy::Static,
            path: DataPath::Vector,
            half_panel: true,
            fast_math: false,
        };
        let a2 = ArmConfig {
            sched: SchedPolicy::ColumnStriped,
            path: DataPath::Auto,
            half_panel: false,
            fast_math: true,
        };
        tuner.record(f1, a1);
        tuner.record(f2, a2);
        let reloaded = AutoTuner::with_path(&path);
        assert_eq!(reloaded.len(), 2);
        assert_eq!(reloaded.lookup(&f1), Some(a1));
        assert_eq!(reloaded.lookup(&f2), Some(a2));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(CALIB_HEADER));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_calibration_is_ignored_never_panics() {
        let dir = std::env::temp_dir().join(format!("mpspmm-tuner-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Garbage bytes, wrong version, and a truncated entry all load
        // as an empty table (warning on stderr), never a panic.
        for (name, bytes) in [
            ("garbage.calib", &b"\x00\xffnot a table\x07"[..]),
            (
                "oldver.calib",
                b"mpspmm-calib v0\n1 2 3 4 5 6 static vector 0 0\n",
            ),
            (
                "truncated.calib",
                b"mpspmm-calib v1\n10 13 64 2 5 4 static vector 0 0\n10 13 256 0",
            ),
            (
                "badarm.calib",
                b"mpspmm-calib v1\n1 2 3 4 5 6 warp vector 0 0\n",
            ),
        ] {
            let p = dir.join(name);
            std::fs::write(&p, bytes).unwrap();
            let tuner = AutoTuner::with_path(&p);
            assert!(tuner.is_empty(), "{name} must load as empty");
            // The tuner stays fully functional: new verdicts overwrite
            // the bad file with a valid table.
            let f = fp(64, 2, 4);
            let a = ArmConfig {
                sched: SchedPolicy::Static,
                path: DataPath::Vector,
                half_panel: false,
                fast_math: false,
            };
            tuner.record(f, a);
            assert_eq!(AutoTuner::with_path(&p).lookup(&f), Some(a));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_rejects_whole_file_on_any_bad_line() {
        assert!(parse_calibration("").is_err());
        assert!(parse_calibration("mpspmm-calib v2\n").is_err());
        let good = format!("{CALIB_HEADER}\n10 13 64 2 5 4 stripe vector 0 0\n");
        assert_eq!(parse_calibration(&good).unwrap().len(), 1);
        let mixed = format!("{CALIB_HEADER}\n10 13 64 2 5 4 stripe vector 0 0\nnonsense\n");
        assert!(parse_calibration(&mixed).is_err());
    }

    #[test]
    fn arm_labels_are_stable() {
        let a = ArmConfig {
            sched: SchedPolicy::ColumnStriped,
            path: DataPath::Vector,
            half_panel: true,
            fast_math: false,
        };
        assert_eq!(a.label(), "stripe/vector/half");
    }
}
