//! Sweep decomposition: one FR sweep → independent runner cells.
//!
//! A sweep config (solvers × budgets × trials) decomposes into:
//!
//! * one **curve cell** per deterministic solver — these are
//!   prefix-stable (the placement at budget `k` is the first `k` picks
//!   of one max-budget run), so the whole curve costs one placement;
//! * one **trial cell** per (randomized solver, budget `k`, trial) —
//!   each runs one seeded placement and reports one FR sample.
//!
//! The cells go through [`crate::runner::run_parallel`] and are reduced
//! back into a [`SweepResult`] in configuration order: per-`k` means
//! are summed in trial order, so the result is bit-identical for any
//! `--jobs`, and identical to the seed's per-solver threading.
//!
//! The solver arithmetic itself lives behind [`SweepBackend`] — the
//! `Problem` type in `fp-core` implements it (this crate sits below
//! `fp-core` in the dependency order).

use crate::model::{SolverSeries, SweepConfig, SweepResult};
use crate::runner::{run_parallel, RunnerOptions};
use fp_algorithms::SolverKind;

/// The solver arithmetic a sweep needs, implemented by
/// `fp_core::Problem`.
pub trait SweepBackend: Sync {
    /// One randomized placement at budget `k` under `seed`; returns FR.
    fn randomized_fr(&self, solver: SolverKind, k: usize, seed: u64) -> f64;

    /// A deterministic solver's whole prefix-stable curve over `ks`.
    fn deterministic_curve(&self, solver: SolverKind, ks: &[usize]) -> Vec<(usize, f64)>;
}

/// One unit of schedulable work.
///
/// Public because the sweep fabric ([`crate::net`]) ships cells to
/// worker processes over the wire ([`crate::protocol`]); the in-process
/// runner and the fabric schedule exactly the same cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// A deterministic solver's full curve.
    Curve {
        /// The deterministic solver.
        solver: SolverKind,
    },
    /// One randomized trial at one budget.
    Trial {
        /// The randomized solver.
        solver: SolverKind,
        /// The budget.
        k: usize,
        /// The trial's seed.
        seed: u64,
    },
}

/// One cell's output.
#[derive(Clone, Debug, PartialEq)]
pub enum CellOut {
    /// A deterministic solver's `(k, FR)` curve.
    Curve(Vec<(usize, f64)>),
    /// One randomized trial's FR sample.
    Fr(f64),
}

impl CellOut {
    /// Whether this output has the shape `cell` must produce (a worker
    /// answering a curve cell with a trial sample is a protocol error).
    pub fn matches(&self, cell: &Cell) -> bool {
        matches!(
            (self, cell),
            (CellOut::Curve(_), Cell::Curve { .. }) | (CellOut::Fr(_), Cell::Trial { .. })
        )
    }
}

/// Effective trial count: the seed treated `trials = 0` as one trial.
fn effective_trials(cfg: &SweepConfig) -> usize {
    cfg.trials.max(1)
}

/// Decompose `cfg` into cells, in configuration order.
pub fn sweep_cells(cfg: &SweepConfig) -> Vec<Cell> {
    let trials = effective_trials(cfg);
    let mut out = Vec::new();
    for &solver in &cfg.solvers {
        if solver.is_randomized() {
            for &k in &cfg.ks {
                for t in 0..trials {
                    out.push(Cell::Trial {
                        solver,
                        k,
                        seed: cfg.seed.wrapping_add(t as u64),
                    });
                }
            }
        } else {
            out.push(Cell::Curve { solver });
        }
    }
    out
}

/// Evaluate one cell against a backend (`ks` is the sweep's budget
/// axis, which curve cells span). Both sweep backends go through this:
/// the in-process runner directly, the fabric inside each worker.
pub fn eval_cell<B: SweepBackend>(backend: &B, ks: &[usize], cell: &Cell) -> CellOut {
    fp_obs::counter("fp_sweep_cells_total").inc();
    match *cell {
        Cell::Curve { solver } => {
            let _span = fp_obs::span("sweep.cell.curve");
            CellOut::Curve(backend.deterministic_curve(solver, ks))
        }
        Cell::Trial { solver, k, seed } => {
            let _span = fp_obs::span("sweep.cell.trial").arg("k", k as i64);
            CellOut::Fr(backend.randomized_fr(solver, k, seed))
        }
    }
}

/// Run the sweep across the runner's workers.
///
/// Returns `None` iff `opts.deadline` expired before every cell ran —
/// partial sweeps are discarded rather than stored, so persisted
/// results are always complete.
pub fn run_sweep_cells<B: SweepBackend>(
    backend: &B,
    cfg: &SweepConfig,
    opts: &RunnerOptions,
) -> Option<SweepResult> {
    let cells = sweep_cells(cfg);
    let outcome = run_parallel(&cells, opts, |_, cell| eval_cell(backend, &cfg.ks, cell));
    let outputs = outcome.into_complete()?;
    Some(reduce_cells(cfg, outputs))
}

/// Reduce per-cell outputs (in [`sweep_cells`] order) back into a
/// [`SweepResult`] in configuration order: per-`k` means are summed in
/// trial order, so the result is bit-identical however the cells were
/// scheduled — threads, processes, or serially.
///
/// # Panics
///
/// Panics when `outputs` does not line up with `cfg`'s decomposition
/// (wrong length or a shape mismatch); schedulers validate shapes with
/// [`CellOut::matches`] before reducing.
pub fn reduce_cells(cfg: &SweepConfig, outputs: Vec<CellOut>) -> SweepResult {
    let trials = effective_trials(cfg);
    let mut cursor = outputs.into_iter();
    let mut next = || cursor.next().expect("cell count mismatch");
    let series = cfg
        .solvers
        .iter()
        .map(|&solver| {
            let points = if solver.is_randomized() {
                cfg.ks
                    .iter()
                    .map(|&k| {
                        let mut acc = 0.0;
                        for _ in 0..trials {
                            match next() {
                                CellOut::Fr(fr) => acc += fr,
                                CellOut::Curve(_) => unreachable!("trial cell expected"),
                            }
                        }
                        (k, acc / trials as f64)
                    })
                    .collect()
            } else {
                match next() {
                    CellOut::Curve(curve) => curve,
                    CellOut::Fr(_) => unreachable!("curve cell expected"),
                }
            };
            SolverSeries {
                label: solver.label().to_string(),
                points,
            }
        })
        .collect();
    SweepResult { series }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// A synthetic backend: FR = k / (k + 1), randomized trials offset
    /// by a seed-derived wiggle so means actually exercise reduction.
    struct FakeBackend {
        evals: AtomicUsize,
    }

    impl FakeBackend {
        fn new() -> Self {
            Self {
                evals: AtomicUsize::new(0),
            }
        }
    }

    impl SweepBackend for FakeBackend {
        fn randomized_fr(&self, _solver: SolverKind, k: usize, seed: u64) -> f64 {
            self.evals.fetch_add(1, Ordering::Relaxed);
            let wiggle = (seed % 7) as f64 / 100.0;
            k as f64 / (k as f64 + 1.0) + wiggle
        }

        fn deterministic_curve(&self, _solver: SolverKind, ks: &[usize]) -> Vec<(usize, f64)> {
            self.evals.fetch_add(1, Ordering::Relaxed);
            ks.iter()
                .map(|&k| (k, k as f64 / (k as f64 + 1.0)))
                .collect()
        }
    }

    fn cfg() -> SweepConfig {
        SweepConfig {
            ks: vec![0, 2, 5],
            trials: 4,
            seed: 9,
            solvers: vec![SolverKind::GreedyAll, SolverKind::RandK, SolverKind::RandW],
        }
    }

    #[test]
    fn jobs_do_not_change_the_bits() {
        let cfg = cfg();
        let serial =
            run_sweep_cells(&FakeBackend::new(), &cfg, &RunnerOptions::with_jobs(1)).unwrap();
        for jobs in [2, 8] {
            let parallel =
                run_sweep_cells(&FakeBackend::new(), &cfg, &RunnerOptions::with_jobs(jobs))
                    .unwrap();
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
        assert_eq!(serial.series.len(), 3);
        assert_eq!(serial.series[0].label, "G_ALL");
        assert_eq!(serial.series[0].points.len(), 3);
    }

    #[test]
    fn cell_counts_match_the_decomposition() {
        let cfg = cfg();
        let backend = FakeBackend::new();
        run_sweep_cells(&backend, &cfg, &RunnerOptions::with_jobs(3)).unwrap();
        // 1 curve + 2 randomized solvers × 3 ks × 4 trials.
        assert_eq!(backend.evals.load(Ordering::Relaxed), 1 + 2 * 3 * 4);
    }

    #[test]
    fn randomized_means_average_in_trial_order() {
        let cfg = SweepConfig {
            ks: vec![1],
            trials: 4,
            seed: 0,
            solvers: vec![SolverKind::RandK],
        };
        let res = run_sweep_cells(&FakeBackend::new(), &cfg, &RunnerOptions::with_jobs(2)).unwrap();
        // trials use seeds 0..3 → wiggles 0.00..0.03, mean 0.015.
        let expected = 0.5 + (0.00 + 0.01 + 0.02 + 0.03) / 4.0;
        assert!((res.series[0].points[0].1 - expected).abs() < 1e-12);
    }

    #[test]
    fn zero_trials_behaves_like_one() {
        let mut c = cfg();
        c.trials = 0;
        let res = run_sweep_cells(&FakeBackend::new(), &c, &RunnerOptions::with_jobs(2)).unwrap();
        let one = {
            let mut c1 = c.clone();
            c1.trials = 1;
            run_sweep_cells(&FakeBackend::new(), &c1, &RunnerOptions::with_jobs(2)).unwrap()
        };
        assert_eq!(res, one);
    }

    #[test]
    fn expired_deadline_returns_none() {
        let opts = RunnerOptions {
            jobs: 2,
            deadline: Some(Instant::now() - Duration::from_secs(1)),
        };
        assert!(run_sweep_cells(&FakeBackend::new(), &cfg(), &opts).is_none());
    }

    #[test]
    fn empty_solver_list_yields_empty_result() {
        let cfg = SweepConfig {
            ks: vec![1, 2],
            trials: 2,
            seed: 0,
            solvers: vec![],
        };
        let res = run_sweep_cells(&FakeBackend::new(), &cfg, &RunnerOptions::default()).unwrap();
        assert!(res.series.is_empty());
    }
}
