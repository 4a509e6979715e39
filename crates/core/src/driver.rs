//! The ask/tell search driver: the evaluate-loop extracted out of the
//! individual search methods, in steppable session form.
//!
//! Every search method is a [`SearchStrategy`] — a pure resumable state
//! machine that *asks* for candidate evaluations and is *told* their
//! results. A [`SearchSession`] binds one strategy to the
//! [`ScenarioHandle`] its evaluations go through and advances it one
//! ask/evaluate/tell round per [`step`](SearchSession::step); the
//! [`SearchDriver`] entry points are now thin loops over sessions. The
//! split buys three things:
//!
//! * **interleaving** — [`SearchDriver::run_interleaved`] round-robins any
//!   number of independent sessions (different methods, different input
//!   classes, different scenarios) over one shared [`EvalService`]
//!   (`aarc_simulator::EvalService`) pool, one step per session per round;
//! * **online serving** — a long-running daemon (`aarc serve`) owns
//!   sessions directly, stepping them from a scheduler thread while
//!   concurrent clients poll each session's [`SessionProgress`] snapshot,
//!   pause it (the scheduler stops stepping it) or cancel it;
//! * **determinism** — a strategy's ask sequence depends only on the
//!   results it was told, and every evaluation's RNG seed derives from the
//!   environment seed (probes) or the candidate's batch index (batches,
//!   see [`aarc_simulator::derive_seed`]). Interleaved or served runs are
//!   therefore bit-identical to sequential ones, at any thread count and
//!   under any step schedule.

use serde::{Deserialize, Serialize};

use aarc_simulator::{ConfigMap, ScenarioHandle, SimResult, WorkflowEnvironment};

use crate::error::AarcError;
use crate::search::SearchOutcome;

/// One request from a strategy to the driver.
#[derive(Debug)]
pub enum Ask {
    /// Evaluate one candidate under the environment's default input and
    /// seed (the sequential probe used by the iterative methods; answered
    /// by [`ScenarioHandle::evaluate`]).
    Probe(ConfigMap),
    /// Evaluate an index-seeded batch: candidate `i` runs under
    /// `derive_seed(env.seed(), i)` and the batch fans out over the shared
    /// worker pool (answered by [`ScenarioHandle::evaluate_batch`]).
    Batch(Vec<ConfigMap>),
    /// The search is complete; the driver calls
    /// [`SearchStrategy::finish`].
    Done,
}

/// A resumable configuration-search state machine.
///
/// The protocol is strictly alternating: after an [`Ask::Probe`] or
/// [`Ask::Batch`] the driver calls [`tell`](SearchStrategy::tell) exactly
/// once with the results (one result for a probe, one per candidate in
/// batch order), then asks again. [`Ask::Done`] ends the run and
/// [`finish`](SearchStrategy::finish) is called exactly once.
///
/// Strategies own their [`SearchTrace`](crate::search::SearchTrace) and
/// best-so-far state; they must not perform evaluations themselves — that
/// is what keeps independent searches interleavable on one shared pool.
/// Strategies are `Send` so sessions can be stepped from a scheduler
/// thread (the `aarc serve` daemon moves live sessions across threads).
pub trait SearchStrategy: Send {
    /// Short method name used in figures ("AARC", "BO", "MAFF").
    fn name(&self) -> &str;

    /// Produces the next evaluation request (or [`Ask::Done`]).
    ///
    /// # Errors
    ///
    /// Strategies may fail here on invalid internal state; validation
    /// errors discovered from results are usually raised in
    /// [`tell`](SearchStrategy::tell) instead.
    fn ask(&mut self, env: &WorkflowEnvironment) -> Result<Ask, AarcError>;

    /// Receives the results of the previous ask, in candidate order.
    ///
    /// # Errors
    ///
    /// Returns an error to abort the search (e.g. the base configuration
    /// violates the SLO).
    fn tell(&mut self, env: &WorkflowEnvironment, results: &[SimResult]) -> Result<(), AarcError>;

    /// Consumes the accumulated state into the final [`SearchOutcome`].
    /// Called exactly once, after [`ask`](SearchStrategy::ask) returned
    /// [`Ask::Done`].
    ///
    /// # Errors
    ///
    /// Returns an error if the strategy never completed (driver misuse).
    fn finish(&mut self, env: &WorkflowEnvironment) -> Result<SearchOutcome, AarcError>;
}

impl std::fmt::Debug for dyn SearchStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SearchStrategy({})", self.name())
    }
}

/// Lifecycle state of a [`SearchSession`], as reported by
/// [`SearchSession::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SessionState {
    /// The session has more ask/tell rounds to run.
    Running,
    /// The session completed (successfully, with an error, or by
    /// cancellation); its [`SearchOutcome`] is available.
    Finished,
}

/// The best SLO-feasible candidate a session has observed so far: the
/// configuration together with the makespan and cost of its evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Incumbent {
    /// The candidate configuration.
    pub configs: ConfigMap,
    /// End-to-end runtime of its evaluation, ms.
    pub makespan_ms: f64,
    /// Billed cost of its evaluation.
    pub cost: f64,
}

/// One point of a session's convergence trace: the incumbent after a
/// completed ask/evaluate/tell round.
///
/// A caller that keeps a trace appends [`RoundPoint::after`] the session's
/// progress for every step that returned [`SessionState::Running`], so a
/// client can plot search progress — cost and makespan of the best
/// feasible candidate against rounds or evaluations — while the session
/// runs. The trace is deterministic (it derives from the deterministic
/// step sequence) and is not part of any report, so byte-golden outputs
/// are unaffected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoundPoint {
    /// 1-based round index (equals [`SessionProgress::rounds`] after the
    /// step).
    pub round: u64,
    /// Cumulative candidate evaluations after the round.
    pub evals: u64,
    /// Cost of the incumbent after the round, if one exists yet.
    pub incumbent_cost: Option<f64>,
    /// Makespan of the incumbent after the round, ms.
    pub incumbent_makespan_ms: Option<f64>,
}

impl RoundPoint {
    /// The point a completed round leaves: the session's progress after
    /// the step.
    pub fn after(progress: &SessionProgress) -> Self {
        RoundPoint {
            round: progress.rounds,
            evals: progress.evals,
            incumbent_cost: progress.incumbent.as_ref().map(|inc| inc.cost),
            incumbent_makespan_ms: progress.incumbent.as_ref().map(|inc| inc.makespan_ms),
        }
    }
}

/// A cheap point-in-time snapshot of a session's progress, maintained by
/// [`SearchSession::step`] and polled by the serving layer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionProgress {
    /// Completed ask/evaluate/tell rounds.
    pub rounds: u64,
    /// Candidate evaluations requested so far (a probe counts 1, a batch
    /// its length).
    pub evals: u64,
    /// Best feasible candidate observed so far: lowest-cost result that
    /// did not OOM and (when the session knows its SLO) met the SLO. Ties
    /// keep the earliest, so the snapshot is deterministic.
    pub incumbent: Option<Incumbent>,
}

/// One steppable search: a [`SearchStrategy`] bound to the
/// [`ScenarioHandle`] its evaluations go through, advanced one
/// ask/evaluate/tell round per [`step`](SearchSession::step).
///
/// Sessions are the unit the driver loops over and the unit the `aarc
/// serve` daemon schedules: they can be cancelled between steps, and
/// publish a [`SessionProgress`] snapshot after every step. The step
/// sequence — ask, evaluate through the handle, tell — is exactly the
/// historical driver loop, so running a session to completion is
/// bit-identical to the pre-session `SearchDriver::run`.
#[derive(Debug)]
pub struct SearchSession<'s> {
    strategy: Box<dyn SearchStrategy>,
    handle: ScenarioHandle<'s>,
    slo_ms: Option<f64>,
    progress: SessionProgress,
    outcome: Option<Result<SearchOutcome, AarcError>>,
}

impl<'s> SearchSession<'s> {
    /// Binds `strategy` to the handle its evaluations will go through.
    pub fn new(strategy: Box<dyn SearchStrategy>, handle: ScenarioHandle<'s>) -> Self {
        SearchSession {
            strategy,
            handle,
            slo_ms: None,
            progress: SessionProgress::default(),
            outcome: None,
        }
    }

    /// [`new`](SearchSession::new), additionally telling the session the
    /// SLO the search runs under so the [`SessionProgress::incumbent`]
    /// snapshot only tracks SLO-feasible candidates.
    pub fn with_slo(
        strategy: Box<dyn SearchStrategy>,
        handle: ScenarioHandle<'s>,
        slo_ms: f64,
    ) -> Self {
        SearchSession {
            slo_ms: Some(slo_ms),
            ..SearchSession::new(strategy, handle)
        }
    }

    /// The session's scenario handle.
    pub fn handle(&self) -> &ScenarioHandle<'s> {
        &self.handle
    }

    /// The strategy's method name.
    pub fn name(&self) -> &str {
        self.strategy.name()
    }

    /// The session's progress snapshot (updated after every completed
    /// step).
    pub fn progress(&self) -> &SessionProgress {
        &self.progress
    }

    /// Cancels the session: it finishes immediately with
    /// [`AarcError::SearchCancelled`]. No effect on an already finished
    /// session (its outcome is kept).
    pub fn cancel(&mut self) {
        if self.outcome.is_none() {
            self.outcome = Some(Err(AarcError::SearchCancelled));
        }
    }

    /// Advances the session by exactly one ask/evaluate/tell round and
    /// returns the state after the step. A finished session is left
    /// untouched.
    pub fn step(&mut self) -> SessionState {
        if self.outcome.is_some() {
            return SessionState::Finished;
        }
        // Split borrows: the strategy is stepped mutably while the
        // environment is borrowed from the handle.
        let SearchSession {
            strategy,
            handle,
            slo_ms,
            progress,
            ..
        } = self;
        let env = handle.env();
        let (asked, results) = match strategy.ask(env) {
            Err(e) => {
                self.outcome = Some(Err(e));
                return SessionState::Finished;
            }
            Ok(Ask::Done) => {
                self.outcome = Some(strategy.finish(env));
                return SessionState::Finished;
            }
            Ok(Ask::Probe(configs)) => match handle.evaluate(&configs) {
                Err(e) => {
                    self.outcome = Some(Err(e.into()));
                    return SessionState::Finished;
                }
                Ok(result) => (vec![configs], vec![result]),
            },
            Ok(Ask::Batch(candidates)) => match handle.evaluate_batch(&candidates) {
                Err(e) => {
                    self.outcome = Some(Err(e.into()));
                    return SessionState::Finished;
                }
                Ok(results) => (candidates, results),
            },
        };
        if let Err(e) = strategy.tell(env, &results) {
            self.outcome = Some(Err(e));
            return SessionState::Finished;
        }
        progress.rounds += 1;
        progress.evals += results.len() as u64;
        for (configs, result) in asked.iter().zip(&results) {
            let feasible =
                !result.any_oom() && slo_ms.is_none_or(|slo| result.makespan_ms() <= slo);
            let improves = progress
                .incumbent
                .as_ref()
                .is_none_or(|inc| result.total_cost() < inc.cost);
            if feasible && improves {
                progress.incumbent = Some(Incumbent {
                    configs: configs.clone(),
                    makespan_ms: result.makespan_ms(),
                    cost: result.total_cost(),
                });
            }
        }
        SessionState::Running
    }

    /// Whether the session has completed.
    pub fn is_finished(&self) -> bool {
        self.outcome.is_some()
    }

    /// Consumes a finished session into its outcome; `None` when the
    /// session has not finished yet.
    pub fn into_outcome(self) -> Option<Result<SearchOutcome, AarcError>> {
        self.outcome
    }
}

/// The evaluate-loop between strategies and the evaluation substrate: thin
/// run-to-completion loops over [`SearchSession`]s.
#[derive(Debug, Default)]
pub struct SearchDriver;

impl SearchDriver {
    /// Runs one strategy to completion on `handle`.
    ///
    /// # Errors
    ///
    /// Propagates the first strategy or platform error.
    pub fn run(
        strategy: Box<dyn SearchStrategy>,
        handle: &ScenarioHandle<'_>,
    ) -> Result<SearchOutcome, AarcError> {
        let mut session = SearchSession::new(strategy, handle.clone());
        while session.step() == SessionState::Running {}
        session
            .into_outcome()
            .expect("a stepped-to-Finished session has an outcome")
    }

    /// Runs any number of independent sessions concurrently on their (in
    /// practice shared) services by round-robin interleaving: each live
    /// session performs one ask/evaluate/tell step per round, so batches
    /// from different searches alternate on the shared worker pool.
    /// Outcomes are returned in session order; a session's error ends that
    /// session only.
    pub fn run_interleaved(
        mut sessions: Vec<SearchSession<'_>>,
    ) -> Vec<Result<SearchOutcome, AarcError>> {
        loop {
            let mut any_live = false;
            for session in &mut sessions {
                if !session.is_finished() {
                    any_live = true;
                    session.step();
                }
            }
            if !any_live {
                break;
            }
        }
        sessions
            .into_iter()
            .map(|s| s.into_outcome().expect("every session ran to completion"))
            .collect()
    }
}

// Sessions move into the serve daemon's scheduler thread.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<SearchSession<'static>>();
    assert_send::<SessionProgress>();
};
