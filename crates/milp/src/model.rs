//! Model-building API and solver entry points.

use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a decision variable within a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// The raw dense index of the variable.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Sense {
    /// Maximize the objective.
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Cmp {
    /// `lhs ≤ rhs`
    Le,
    /// `lhs ≥ rhs`
    Ge,
    /// `lhs = rhs`
    Eq,
}

/// LP engine backing [`Model::solve`] and [`Model::solve_relaxation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Engine {
    /// Legacy dense two-phase tableau (the `dense` module): every pivot
    /// rewrites the full tableau. Kept as the measured baseline and the
    /// oracle for the equivalence tests.
    DenseTableau,
    /// Sparse revised simplex (the `simplex` module): CSC matrix,
    /// product-form eta-file basis inverse with periodic refactorization,
    /// warm-started branch-and-bound nodes. The default.
    #[default]
    SparseRevised,
}

/// A linear constraint `Σ coeff·var (≤|≥|=) rhs`.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Constraint {
    /// The linear terms (variable, coefficient).
    pub terms: Vec<(VarId, f64)>,
    /// The comparison operator.
    pub op: Cmp,
    /// The right-hand side.
    pub rhs: f64,
}

#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub(crate) struct VarDef {
    pub name: String,
    pub lo: f64,
    pub hi: f64,
    pub obj: f64,
    pub integer: bool,
}

/// Solution quality indicator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Status {
    /// Proven optimal.
    Optimal,
    /// Feasible but the node limit stopped the proof of optimality.
    Feasible,
}

/// A solved assignment.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Solution {
    /// Value per variable, indexed by [`VarId`].
    pub values: Vec<f64>,
    /// Objective value under the model's [`Sense`].
    pub objective: f64,
    /// Whether optimality was proven.
    pub status: Status,
    /// Branch-and-bound nodes explored.
    pub nodes: u64,
    /// Simplex pivots spent across all explored nodes — the deterministic
    /// work measure behind [`Model::set_work_limit`].
    pub pivots: u64,
    /// Subset of `pivots` performed by the dual simplex on warm re-solves
    /// ([`Engine::SparseRevised`] only; always 0 for the dense tableau).
    pub dual_pivots: u64,
    /// Basis refactorizations performed across all explored nodes
    /// ([`Engine::SparseRevised`] only; always 0 for the dense tableau).
    pub refactors: u64,
    /// A node, work, or simplex-iteration budget fired before the search
    /// (or an LP phase) finished: the solution is feasible but `objective`
    /// may be short of the true optimum.
    pub truncated: bool,
    /// Best-first entries discarded by bound before their LP was solved
    /// (these never count toward `nodes`).
    pub nodes_pruned: u64,
    /// A caller-supplied warm basis ([`Model::solve_warm`]) was adopted at
    /// the root.
    pub warm_used: bool,
    /// What the presolve pass did (all-zero when presolve is disabled).
    pub presolve: crate::presolve::PresolveReport,
    /// Final basis of the root LP, for cross-solve warm starts
    /// ([`Engine::SparseRevised`] only).
    pub root_basis: Option<crate::simplex::WarmBasis>,
}

impl Solution {
    /// Value of `v`.
    pub fn value(&self, v: VarId) -> f64 {
        self.values[v.0]
    }

    /// Rounded 0/1 reading of a binary variable.
    pub fn is_one(&self, v: VarId) -> bool {
        self.values[v.0] > 0.5
    }
}

/// Solver failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SolveError {
    /// No assignment satisfies the constraints.
    Infeasible,
    /// The LP relaxation is unbounded.
    Unbounded,
    /// Branch & bound exhausted its node budget without any incumbent.
    NodeLimit,
    /// A variable was declared with `lo > hi`.
    BadBounds(String),
    /// Presolve proved the model infeasible before any simplex ran (crossed
    /// bounds, a row whose activity range misses its rhs, an integer
    /// variable pinned to a fractional value). The payload says which rule
    /// fired; the verdict is the same as [`SolveError::Infeasible`].
    PresolveInfeasible(String),
}

impl SolveError {
    /// `true` for both flavors of infeasibility (plain and presolve-detected).
    pub fn is_infeasible(&self) -> bool {
        matches!(
            self,
            SolveError::Infeasible | SolveError::PresolveInfeasible(_)
        )
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => f.write_str("model is infeasible"),
            SolveError::Unbounded => f.write_str("model is unbounded"),
            SolveError::NodeLimit => f.write_str("node limit reached without incumbent"),
            SolveError::BadBounds(v) => write!(f, "variable {v} has lo > hi"),
            SolveError::PresolveInfeasible(why) => {
                write!(f, "presolve proved the model infeasible: {why}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// What [`Model::canonicalize`] removed, row by row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RowReduction {
    /// Constraint rows before canonicalization.
    pub original: usize,
    /// Trivially-satisfied rows with no (surviving) terms.
    pub zero: usize,
    /// Rows implied by the variable bounds alone (activity bound already
    /// meets the rhs).
    pub redundant: usize,
    /// Rows with the same terms and operator as an earlier row (the
    /// survivor keeps the tightest rhs).
    pub duplicate: usize,
    /// Constraint rows after canonicalization.
    pub remaining: usize,
}

impl RowReduction {
    /// Total rows removed.
    pub fn dropped(&self) -> usize {
        self.zero + self.redundant + self.duplicate
    }
}

/// A mixed-integer linear program.
#[derive(Debug, Clone)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) node_limit: u64,
    pub(crate) gap: f64,
    pub(crate) work_limit: Option<u64>,
    pub(crate) engine: Engine,
    pub(crate) jobs: usize,
    pub(crate) presolve: bool,
}

impl Model {
    /// Names of all variables, in column order — the payload for
    /// [`WarmStart::var_names`](crate::WarmStart::var_names), which lets a
    /// stored warm start follow its variables into a drifted model.
    pub fn var_names(&self) -> Vec<String> {
        self.vars.iter().map(|v| v.name.clone()).collect()
    }

    /// Creates an empty model.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
            node_limit: 200_000,
            gap: 1e-9,
            work_limit: None,
            engine: Engine::default(),
            jobs: 1,
            presolve: true,
        }
    }

    /// Adds a variable and returns its id.
    ///
    /// `lo`/`hi` are the bounds (`hi` may be `f64::INFINITY`), `obj` the
    /// objective coefficient, `integer` whether the variable must take an
    /// integral value.
    pub fn add_var(
        &mut self,
        name: impl Into<String>,
        lo: f64,
        hi: f64,
        obj: f64,
        integer: bool,
    ) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(VarDef {
            name: name.into(),
            lo,
            hi,
            obj,
            integer,
        });
        id
    }

    /// Adds a binary (0/1) variable.
    pub fn add_binary(&mut self, name: impl Into<String>, obj: f64) -> VarId {
        self.add_var(name, 0.0, 1.0, obj, true)
    }

    /// Adds a constraint.
    pub fn add_constraint(&mut self, terms: Vec<(VarId, f64)>, op: Cmp, rhs: f64) {
        self.constraints.push(Constraint { terms, op, rhs });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Sets the absolute optimality gap: branch-and-bound prunes any node
    /// whose LP bound does not beat the incumbent by more than `gap`
    /// (default 1e-9 ⇒ exact). A small positive gap collapses search trees
    /// whose leaves differ only by tie-breaking noise.
    pub fn set_gap(&mut self, gap: f64) {
        self.gap = gap.max(0.0);
    }

    /// Caps branch-and-bound *work*, measured in simplex pivots summed over
    /// all tree nodes; on exhaustion the best incumbent is returned as
    /// [`Status::Feasible`] (or [`SolveError::NodeLimit`] when none
    /// exists). Unlike a wall-clock limit, the cutoff point is a pure
    /// function of the model, so truncated solves are reproducible
    /// run-to-run and machine-to-machine.
    pub fn set_work_limit(&mut self, pivots: u64) {
        self.work_limit = Some(pivots);
    }

    /// Caps the number of branch-and-bound nodes (default 200 000). When
    /// the cap is hit with an incumbent, [`Status::Feasible`] is returned
    /// instead of failing.
    pub fn set_node_limit(&mut self, limit: u64) {
        self.node_limit = limit;
    }

    /// Selects the LP engine (default [`Engine::SparseRevised`]).
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// Worker threads for branch-and-bound node LPs (default 1). The
    /// search explores fixed-size node waves whose composition never
    /// depends on `jobs`, so the solution, objective, node count, and
    /// pivot count are bit-identical at any thread count — `jobs` is a
    /// pure throughput knob.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// Enables/disables the presolve pass run by [`Model::solve`] (default
    /// on). Presolve is MILP-preserving, not LP-preserving, so
    /// [`Model::solve_relaxation`] never applies it; turning it off here
    /// restores the exact pre-presolve solver as an equivalence oracle.
    pub fn set_presolve(&mut self, on: bool) {
        self.presolve = on;
    }

    /// Runs the presolve pass in place and reports what it did. Called
    /// automatically by [`Model::solve`] (on a clone, so the caller's model
    /// is never mutated) unless [`Model::set_presolve`] disabled it; exposed
    /// for tests and diagnostics. Idempotent: a second call is a no-op.
    ///
    /// # Errors
    ///
    /// [`SolveError::PresolveInfeasible`] when a presolve rule proves the
    /// model has no integer-feasible point.
    pub fn presolve(&mut self) -> Result<crate::presolve::PresolveReport, SolveError> {
        crate::presolve::run(self)
    }

    /// Canonicalizes the constraint rows in place and reports what was
    /// removed:
    ///
    /// * duplicate terms within a row are merged (and zero coefficients
    ///   dropped), terms sorted by variable;
    /// * rows left with no terms are dropped when trivially satisfied
    ///   (a violated empty row is kept so the solver reports
    ///   infeasibility);
    /// * rows already implied by the variable bounds are dropped — sound
    ///   under branch-and-bound, which only ever *tightens* bounds;
    /// * rows with identical terms and operator collapse to one row with
    ///   the tightest rhs (`≤` keeps the min, `≥` the max; `=` rows only
    ///   collapse when the rhs matches exactly).
    ///
    /// The buffer placer's covering-cut models shrink measurably: repeated
    /// cut rounds re-derive overlapping cuts, and channels fixed at 1 make
    /// whole covering rows redundant.
    pub fn canonicalize(&mut self) -> RowReduction {
        const TOL: f64 = 1e-9;
        let mut red = RowReduction {
            original: self.constraints.len(),
            ..RowReduction::default()
        };
        // Key: (sorted term list with bit-exact coefficients, operator).
        let mut seen: BTreeMap<(Vec<(usize, u64)>, u8), usize> = BTreeMap::new();
        let mut kept: Vec<Constraint> = Vec::with_capacity(self.constraints.len());
        'rows: for c in self.constraints.drain(..) {
            // Merge duplicate terms, drop zeros, sort by variable index.
            let mut merged: BTreeMap<usize, f64> = BTreeMap::new();
            for &(v, a) in &c.terms {
                *merged.entry(v.index()).or_insert(0.0) += a;
            }
            merged.retain(|_, a| *a != 0.0);
            let terms: Vec<(VarId, f64)> = merged.iter().map(|(&v, &a)| (VarId(v), a)).collect();

            if terms.is_empty() {
                let satisfied = match c.op {
                    Cmp::Le => 0.0 <= c.rhs + TOL,
                    Cmp::Ge => 0.0 >= c.rhs - TOL,
                    Cmp::Eq => c.rhs.abs() <= TOL,
                };
                if satisfied {
                    red.zero += 1;
                    continue 'rows;
                }
                // Violated: keep so the solver reports infeasibility.
                kept.push(Constraint {
                    terms,
                    op: c.op,
                    rhs: c.rhs,
                });
                continue 'rows;
            }

            // Activity-bound redundancy from the variable box alone.
            // Branching only tightens bounds, so a row redundant now stays
            // redundant at every node.
            match c.op {
                Cmp::Ge => {
                    let min_activity: f64 = terms
                        .iter()
                        .map(|&(v, a)| {
                            let d = &self.vars[v.index()];
                            if a > 0.0 {
                                a * d.lo
                            } else {
                                a * d.hi
                            }
                        })
                        .sum();
                    if min_activity.is_finite() && min_activity >= c.rhs - TOL {
                        red.redundant += 1;
                        continue 'rows;
                    }
                }
                Cmp::Le => {
                    let max_activity: f64 = terms
                        .iter()
                        .map(|&(v, a)| {
                            let d = &self.vars[v.index()];
                            if a > 0.0 {
                                a * d.hi
                            } else {
                                a * d.lo
                            }
                        })
                        .sum();
                    if max_activity.is_finite() && max_activity <= c.rhs + TOL {
                        red.redundant += 1;
                        continue 'rows;
                    }
                }
                Cmp::Eq => {}
            }

            // Exact duplicates (same terms, same operator): keep one row
            // with the tightest rhs.
            let key = (
                terms
                    .iter()
                    .map(|&(v, a)| (v.index(), a.to_bits()))
                    .collect::<Vec<_>>(),
                c.op as u8,
            );
            match seen.get(&key) {
                Some(&at) => {
                    let prev = &mut kept[at];
                    match c.op {
                        Cmp::Le => {
                            prev.rhs = prev.rhs.min(c.rhs);
                            red.duplicate += 1;
                        }
                        Cmp::Ge => {
                            prev.rhs = prev.rhs.max(c.rhs);
                            red.duplicate += 1;
                        }
                        Cmp::Eq => {
                            if prev.rhs == c.rhs {
                                red.duplicate += 1;
                            } else {
                                // Conflicting equalities: keep both; the
                                // solver will report infeasibility.
                                kept.push(Constraint {
                                    terms,
                                    op: c.op,
                                    rhs: c.rhs,
                                });
                            }
                        }
                    }
                }
                None => {
                    seen.insert(key, kept.len());
                    kept.push(Constraint {
                        terms,
                        op: c.op,
                        rhs: c.rhs,
                    });
                }
            }
        }
        red.remaining = kept.len();
        self.constraints = kept;
        red
    }

    /// Solves the model.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`], [`SolveError::Unbounded`],
    /// [`SolveError::NodeLimit`] (no incumbent found in budget), or
    /// [`SolveError::BadBounds`].
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.solve_warm(None)
    }

    /// [`Model::solve`] with an optional cross-solve warm start: the basis
    /// (adopted at the root only when it still refactors to a primal
    /// feasible point — a pure, deterministic check) and, when present, an
    /// incumbent seed (validated against this model's rows and bounds
    /// before use; an invalid seed is silently ignored). A warm start can
    /// never change which solutions are feasible, only how fast the search
    /// converges.
    ///
    /// # Errors
    ///
    /// Same as [`Model::solve`].
    pub fn solve_warm(
        &self,
        warm: Option<&crate::warm::WarmStart>,
    ) -> Result<Solution, SolveError> {
        for v in &self.vars {
            if v.lo > v.hi {
                return Err(SolveError::BadBounds(v.name.clone()));
            }
        }
        if self.presolve {
            let mut pre = self.clone();
            let report = crate::presolve::run(&mut pre)?;
            let mut sol = crate::branch::branch_and_bound(&pre, warm)?;
            sol.presolve = report;
            Ok(sol)
        } else {
            crate::branch::branch_and_bound(self, warm)
        }
    }

    /// Solves only the LP relaxation (integrality dropped). Useful as a
    /// rounding fallback when branch & bound hits its node limit.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`], [`SolveError::Unbounded`], or
    /// [`SolveError::BadBounds`].
    pub fn solve_relaxation(&self) -> Result<Solution, SolveError> {
        for v in &self.vars {
            if v.lo > v.hi {
                return Err(SolveError::BadBounds(v.name.clone()));
            }
        }
        let ov = crate::simplex::BoundOverrides::default();
        let lp = match self.engine {
            Engine::SparseRevised => crate::simplex::solve_lp(self, &ov)?,
            Engine::DenseTableau => crate::dense::solve_lp_dense(self, &ov)?,
        };
        Ok(Solution {
            values: lp.values,
            objective: lp.objective,
            status: Status::Feasible,
            nodes: 1,
            pivots: lp.pivots,
            dual_pivots: lp.dual_pivots,
            refactors: lp.refactors,
            truncated: lp.truncated,
            nodes_pruned: 0,
            warm_used: false,
            presolve: crate::presolve::PresolveReport::default(),
            root_basis: lp.basis,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_lp_maximum() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 3.0, false);
        let y = m.add_var("y", 0.0, f64::INFINITY, 5.0, false);
        m.add_constraint(vec![(x, 1.0)], Cmp::Le, 4.0);
        m.add_constraint(vec![(y, 2.0)], Cmp::Le, 12.0);
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-6);
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
        assert!((sol.value(y) - 6.0).abs() < 1e-6);
        assert_eq!(sol.status, Status::Optimal);
    }

    #[test]
    fn minimization_with_ge() {
        // min x + y s.t. x + y >= 3, x >= 1.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0, false);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0, false);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
        m.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0, false);
        let y = m.add_var("y", 0.0, 10.0, 1.0, false);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Eq, 5.0);
        let sol = m.solve().unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasibility() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 1.0, 1.0, false);
        m.add_constraint(vec![(x, 1.0)], Cmp::Ge, 2.0);
        // Presolve catches the crossed bounds up front; with presolve off
        // phase 1 must still reach the same verdict.
        assert!(matches!(
            m.solve().unwrap_err(),
            SolveError::PresolveInfeasible(_)
        ));
        m.set_presolve(false);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn detects_unboundedness() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0, false);
        m.add_constraint(vec![(x, -1.0)], Cmp::Le, 0.0);
        assert_eq!(m.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn rejects_bad_bounds() {
        let mut m = Model::new(Sense::Maximize);
        m.add_var("x", 2.0, 1.0, 1.0, false);
        assert!(matches!(m.solve(), Err(SolveError::BadBounds(_))));
    }

    #[test]
    fn knapsack_binary() {
        // Classic 0/1 knapsack: weights 2,3,4,5 values 3,4,5,6, cap 5.
        let mut m = Model::new(Sense::Maximize);
        let items: Vec<VarId> = [3.0, 4.0, 5.0, 6.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| m.add_binary(format!("i{i}"), v))
            .collect();
        let weights = [2.0, 3.0, 4.0, 5.0];
        m.add_constraint(
            items.iter().zip(weights).map(|(&v, w)| (v, w)).collect(),
            Cmp::Le,
            5.0,
        );
        let sol = m.solve().unwrap();
        assert!((sol.objective - 7.0).abs() < 1e-6); // items 0 + 1
        assert!(sol.is_one(items[0]) && sol.is_one(items[1]));
    }

    #[test]
    fn integer_rounding_is_not_used() {
        // LP optimum fractional (x = 1.5); MILP must give 1 with obj 1.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0, true);
        m.add_constraint(vec![(x, 2.0)], Cmp::Le, 3.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -5 with lo = -10.
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var("x", -10.0, 10.0, 1.0, false);
        m.add_constraint(vec![(x, 1.0)], Cmp::Ge, -5.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) + 5.0).abs() < 1e-6);
    }

    #[test]
    fn both_engines_solve_the_knapsack() {
        for engine in [Engine::DenseTableau, Engine::SparseRevised] {
            let mut m = Model::new(Sense::Maximize);
            let items: Vec<VarId> = [3.0, 4.0, 5.0, 6.0]
                .iter()
                .enumerate()
                .map(|(i, &v)| m.add_binary(format!("i{i}"), v))
                .collect();
            let weights = [2.0, 3.0, 4.0, 5.0];
            m.add_constraint(
                items.iter().zip(weights).map(|(&v, w)| (v, w)).collect(),
                Cmp::Le,
                5.0,
            );
            m.set_engine(engine);
            let sol = m.solve().unwrap();
            assert!((sol.objective - 7.0).abs() < 1e-6, "{engine:?}");
        }
    }

    #[test]
    fn canonicalize_merges_duplicate_terms() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 10.0, 1.0, false);
        // x + x <= 4 must behave as 2x <= 4 after canonicalization.
        m.add_constraint(vec![(x, 1.0), (x, 1.0)], Cmp::Le, 4.0);
        let red = m.canonicalize();
        assert_eq!(red.remaining, 1);
        assert_eq!(m.constraints[0].terms, vec![(x, 2.0)]);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn canonicalize_drops_zero_and_duplicate_rows() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0, false);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0, false);
        m.add_constraint(vec![], Cmp::Le, 5.0); // 0 <= 5: trivially true
        m.add_constraint(vec![(x, 1.0), (x, -1.0)], Cmp::Ge, -1.0); // cancels to 0 >= -1
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 7.0);
        m.add_constraint(vec![(y, 1.0), (x, 1.0)], Cmp::Le, 4.0); // same terms, tighter
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 9.0); // same terms, looser
        let red = m.canonicalize();
        assert_eq!(red.original, 5);
        assert_eq!(red.zero, 2);
        assert_eq!(red.duplicate, 2);
        assert_eq!(red.remaining, 1);
        // The survivor keeps the tightest rhs.
        let sol = m.solve().unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-6);
    }

    #[test]
    fn canonicalize_drops_bound_implied_rows() {
        let mut m = Model::new(Sense::Minimize);
        // Mirrors the placer's fixed buffers: lo = 1 makes covering rows
        // x + y >= 1 redundant.
        let x = m.add_var("x", 1.0, 1.0, 1.0, true);
        let y = m.add_var("y", 0.0, 1.0, 1.0, true);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        m.add_constraint(vec![(y, 1.0)], Cmp::Ge, 1.0); // not redundant
        let red = m.canonicalize();
        assert_eq!(red.redundant, 1);
        assert_eq!(red.remaining, 1);
        let sol = m.solve().unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn canonicalize_keeps_violated_empty_rows() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var("x", 0.0, 1.0, 1.0, false);
        m.add_constraint(vec![(x, 1.0), (x, -1.0)], Cmp::Ge, 3.0); // 0 >= 3: false
        let red = m.canonicalize();
        assert_eq!(red.zero, 0);
        assert_eq!(red.remaining, 1);
        assert!(m.solve().unwrap_err().is_infeasible());
        m.set_presolve(false);
        assert_eq!(m.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn canonicalized_solution_matches_uncanonicalized() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary("x", 3.0);
        let y = m.add_binary("y", 2.0);
        let z = m.add_var("z", 0.0, 2.0, 1.0, false);
        m.add_constraint(vec![(x, 2.0), (y, 1.0), (z, 1.0)], Cmp::Le, 3.0);
        m.add_constraint(vec![(x, 2.0), (y, 1.0), (z, 1.0)], Cmp::Le, 3.0);
        m.add_constraint(vec![(z, 1.0)], Cmp::Le, 5.0); // implied by z <= 2
        let plain = m.solve().unwrap();
        let mut canon = m.clone();
        let red = canon.canonicalize();
        assert!(red.dropped() > 0);
        let sol = canon.solve().unwrap();
        assert!((sol.objective - plain.objective).abs() < 1e-6);
    }
}
