//! Vault-grant arbitration between contending tenants.
//!
//! The service resolves each memory beat to a vault before it is
//! submitted ([`mem3d::MemorySystem::vault_of`]); when several
//! tenants' next beats target the same vault and are all ready by the
//! time the vault's TSV frees up, an [`Arbiter`] picks which one is
//! granted. Everything here is on the service path: no panicking
//! constructs (enforced by simlint rule P101: the service's
//! `service_path` entries reach every `pick`).

use mem3d::Picos;

use crate::{TenancyError, TenantSpec};

/// One contending beat, as the arbiter sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contender {
    /// Tenant identity (index into the scenario's tenant list).
    pub tenant: usize,
    /// Global job id (submission order) — the deterministic tiebreak.
    pub job: u64,
    /// The tenant's strict priority (higher wins under
    /// [`StrictPriority`]).
    pub priority: u8,
    /// The tenant's fair-share weight (under [`DeficitWeighted`]).
    pub weight: u64,
    /// When this beat is ready to issue.
    pub ready: Picos,
    /// Beat size in bytes (the deficit currency).
    pub bytes: u64,
}

/// A winning streak granted ahead of time (see [`Arbiter::lease`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Further picks the winner would win in a row.
    pub picks: u32,
    /// The latest `ready` the winner may have for those picks.
    pub ready_by: Picos,
}

impl Lease {
    /// No streak: every further pick goes through [`Arbiter::pick`].
    pub const NONE: Lease = Lease {
        picks: 0,
        ready_by: Picos::ZERO,
    };

    /// Any number of picks at any ready time.
    const UNLIMITED: Lease = Lease {
        picks: u32::MAX,
        ready_by: Picos::MAX,
    };
}

/// A vault-grant arbitration policy.
///
/// `pick` receives the non-empty contender set for one vault and
/// returns the index **into that slice** of the winner. Implementations
/// must be deterministic functions of their own state and the slice —
/// no clocks, no randomness — and must never panic; out-of-range
/// returns are clamped by the service (defensively) to index 0.
///
/// **Leases.** A contended vault often sees the same winner beat the
/// same losers many times in a row, one pick per memory beat. Right
/// after a pick, [`lease`](Self::lease) may promise that streak ahead
/// of time: `c[winner]` would win the next `picks` picks against the
/// same slice, with only its own `ready` changed — to any value at or
/// below `ready_by` — and its `bytes` unchanged. The service then
/// serves the streak without asking, and [`commit`](Self::commit)s the
/// picks it used. The contract: for every `m ≤ picks`, `commit(m)`
/// leaves the arbiter in the state `m` such `pick` calls would, each
/// returning `winner`. A shorter lease is always correct; the default
/// grants none, so a policy that does not implement leases is asked
/// for every pick.
pub trait Arbiter {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Chooses the winning contender (index into `c`).
    // simlint::entry(service_path)
    fn pick(&mut self, vault: usize, c: &[Contender]) -> usize;

    /// The streak `c[winner]`, just picked, holds against the rest of
    /// `c` (see the trait docs). Pure: the state changes only through
    /// [`commit`](Self::commit).
    fn lease(&self, _vault: usize, _c: &[Contender], _winner: usize) -> Lease {
        Lease::NONE
    }

    /// Records `picks` picks of `c[winner]`'s lease as won.
    fn commit(&mut self, _vault: usize, _c: &[Contender], _winner: usize, _picks: u32) {}
}

/// The built-in policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbiterKind {
    /// Cyclic fair-share over tenants, per vault.
    RoundRobin,
    /// Highest tenant priority wins; ties to the earliest-ready,
    /// lowest-id beat.
    StrictPriority,
    /// Deficit round robin: byte credits refilled proportionally to
    /// tenant weights.
    DeficitWeighted,
}

impl ArbiterKind {
    /// All built-in policies, for sweeps.
    pub const ALL: [ArbiterKind; 3] = [
        ArbiterKind::RoundRobin,
        ArbiterKind::StrictPriority,
        ArbiterKind::DeficitWeighted,
    ];

    /// Stable policy name (also the JSON `policy` field).
    pub fn name(self) -> &'static str {
        match self {
            ArbiterKind::RoundRobin => "round_robin",
            ArbiterKind::StrictPriority => "strict_priority",
            ArbiterKind::DeficitWeighted => "deficit_weighted",
        }
    }

    /// Parses a policy name as printed by [`name`](Self::name).
    ///
    /// # Errors
    ///
    /// Returns [`TenancyError::Config`] for an unknown name.
    pub fn parse(s: &str) -> Result<ArbiterKind, TenancyError> {
        match s {
            "round_robin" => Ok(ArbiterKind::RoundRobin),
            "strict_priority" => Ok(ArbiterKind::StrictPriority),
            "deficit_weighted" => Ok(ArbiterKind::DeficitWeighted),
            other => Err(TenancyError::Config(format!(
                "unknown arbitration policy '{other}' \
                 (round_robin | strict_priority | deficit_weighted)"
            ))),
        }
    }

    /// Instantiates the policy for a tenant set.
    pub fn build(self, tenants: &[TenantSpec], vaults: usize) -> Box<dyn Arbiter> {
        match self {
            ArbiterKind::RoundRobin => Box::new(RoundRobin::new(tenants.len(), vaults)),
            ArbiterKind::StrictPriority => Box::new(StrictPriority),
            ArbiterKind::DeficitWeighted => Box::new(DeficitWeighted::new(
                tenants.iter().map(|t| t.weight).collect(),
                vaults,
            )),
        }
    }
}

/// Per-vault cyclic order over tenant ids: after tenant `t` is granted,
/// the next grant on that vault prefers tenant `t + 1`, wrapping. A
/// tenant with several runnable jobs still gets one grant per cycle —
/// fairness is per tenant, not per job. Ties within a tenant go to the
/// lowest job id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobin {
    tenants: usize,
    /// Per vault: the tenant id the next grant starts scanning from.
    cursor: Vec<usize>,
}

impl RoundRobin {
    /// A round-robin arbiter for `tenants` tenants across `vaults`
    /// vaults.
    pub fn new(tenants: usize, vaults: usize) -> Self {
        RoundRobin {
            tenants: tenants.max(1),
            cursor: vec![0; vaults.max(1)],
        }
    }
}

impl Arbiter for RoundRobin {
    fn name(&self) -> &'static str {
        "round_robin"
    }

    fn pick(&mut self, vault: usize, c: &[Contender]) -> usize {
        let cur = self.cursor.get(vault).copied().unwrap_or(0);
        // Distance from the cursor in cyclic tenant order; the closest
        // tenant wins, its lowest job id within the tenant.
        let mut best = 0usize;
        let mut best_key = (usize::MAX, u64::MAX);
        for (i, cand) in c.iter().enumerate() {
            let dist = (cand.tenant + self.tenants - cur % self.tenants) % self.tenants;
            let key = (dist, cand.job);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        if let (Some(slot), Some(winner)) = (self.cursor.get_mut(vault), c.get(best)) {
            *slot = (winner.tenant + 1) % self.tenants;
        }
        best
    }

    /// A pick moves the cursor past the winner's tenant, so any other
    /// tenant wins the next one. Only when every loser is the winner's
    /// own tenant does the winner — the lowest job id among them — keep
    /// winning, without end.
    fn lease(&self, _vault: usize, c: &[Contender], winner: usize) -> Lease {
        match c.get(winner) {
            Some(w) if c.iter().all(|l| l.tenant == w.tenant) => Lease::UNLIMITED,
            _ => Lease::NONE,
        }
    }

    fn commit(&mut self, vault: usize, c: &[Contender], winner: usize, picks: u32) {
        if let (Some(slot), Some(w)) = (self.cursor.get_mut(vault), c.get(winner)) {
            if picks > 0 {
                *slot = (w.tenant + 1) % self.tenants;
            }
        }
    }
}

/// Highest tenant priority wins; ties broken by earliest ready time,
/// then lowest tenant id, then lowest job id. A starved low-priority
/// tenant is the expected outcome — that is what the policy measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrictPriority;

impl Arbiter for StrictPriority {
    fn name(&self) -> &'static str {
        "strict_priority"
    }

    fn pick(&mut self, _vault: usize, c: &[Contender]) -> usize {
        let mut best = 0usize;
        let mut best_key = (0u8, Picos(u64::MAX), usize::MAX, u64::MAX);
        for (i, cand) in c.iter().enumerate() {
            // Max priority, then min (ready, tenant, job): invert the
            // priority so one lexicographic max works.
            let key = (cand.priority, cand.ready, cand.tenant, cand.job);
            let better = key.0 > best_key.0
                || (key.0 == best_key.0
                    && (key.1, key.2, key.3) < (best_key.1, best_key.2, best_key.3));
            if i == 0 || better {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// Stateless, so only the winner's `ready` can end its streak:
    /// never against lower priorities; against an equal priority once
    /// it passes the loser's `ready` — or reaches it, when the loser's
    /// `(tenant, job)` wins the tie.
    fn lease(&self, _vault: usize, c: &[Contender], winner: usize) -> Lease {
        let Some(w) = c.get(winner) else {
            return Lease::NONE;
        };
        let mut ready_by = Picos::MAX;
        for (i, l) in c.iter().enumerate() {
            if i == winner || l.priority < w.priority {
                continue;
            }
            let bound = if l.priority == w.priority && (w.tenant, w.job) < (l.tenant, l.job) {
                Some(l.ready)
            } else if l.priority == w.priority {
                l.ready.as_ps().checked_sub(1).map(Picos)
            } else {
                None
            };
            match bound {
                Some(b) => ready_by = ready_by.min(b),
                None => return Lease::NONE,
            }
        }
        if w.ready > ready_by {
            return Lease::NONE;
        }
        Lease {
            ready_by,
            ..Lease::UNLIMITED
        }
    }
}

/// Refill quantum multiplier: each refill adds `QUANTUM × weight` byte
/// credits per tenant. One typical TSV burst is ≤ 8 KiB, so a weight-1
/// tenant earns one typical beat per refill round.
const QUANTUM_BYTES: u64 = 4096;

/// Credits are capped at this many quanta × weight so an idle tenant
/// cannot bank unbounded credit and then monopolize the vault.
const CREDIT_CAP_QUANTA: u64 = 8;

/// Refill rounds per `pick` before falling back to the deterministic
/// tiebreak — bounds the loop without a panic on pathological inputs
/// (e.g. a beat larger than any reachable credit).
const MAX_REFILL_ROUNDS: u32 = 64;

/// Deficit round robin (Shreedhar & Varghese) at byte granularity:
/// every tenant holds a per-vault credit balance; a grant costs the
/// beat's bytes; when nobody can afford their beat, all balances are
/// refilled by `QUANTUM × weight`. Long-run vault bandwidth then
/// converges to the weight ratio regardless of beat sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeficitWeighted {
    weights: Vec<u64>,
    /// `credit[vault][tenant]`, saturating arithmetic throughout.
    credit: Vec<Vec<u64>>,
}

impl DeficitWeighted {
    /// A deficit-weighted arbiter for the given per-tenant weights.
    pub fn new(weights: Vec<u64>, vaults: usize) -> Self {
        let tenants = weights.len().max(1);
        DeficitWeighted {
            weights,
            credit: vec![vec![0; tenants]; vaults.max(1)],
        }
    }
}

impl Arbiter for DeficitWeighted {
    fn name(&self) -> &'static str {
        "deficit_weighted"
    }

    fn pick(&mut self, vault: usize, c: &[Contender]) -> usize {
        let Some(credit) = self.credit.get_mut(vault) else {
            return 0;
        };
        for _ in 0..MAX_REFILL_ROUNDS {
            // Richest affordable contender; ties to lowest (tenant, job).
            let mut best: Option<(usize, u64)> = None;
            for (i, cand) in c.iter().enumerate() {
                let bal = credit.get(cand.tenant).copied().unwrap_or(0);
                if bal < cand.bytes.max(1) {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((bi, bb)) => {
                        bal > bb
                            || (bal == bb
                                && c.get(bi)
                                    .is_some_and(|b| (cand.tenant, cand.job) < (b.tenant, b.job)))
                    }
                };
                if better {
                    best = Some((i, bal));
                }
            }
            if let Some((i, _)) = best {
                if let Some(winner) = c.get(i) {
                    if let Some(bal) = credit.get_mut(winner.tenant) {
                        *bal = bal.saturating_sub(winner.bytes.max(1));
                    }
                }
                return i;
            }
            // Nobody can afford their beat: refill every *contending*
            // tenant proportionally to weight, up to the cap.
            for cand in c {
                let w = self.weights.get(cand.tenant).copied().unwrap_or(1).max(1);
                if let Some(bal) = credit.get_mut(cand.tenant) {
                    let quantum = QUANTUM_BYTES.saturating_mul(w);
                    *bal = bal
                        .saturating_add(quantum)
                        .min(quantum.saturating_mul(CREDIT_CAP_QUANTA));
                }
            }
        }
        // Pathological beat size: deterministic fallback, no panic.
        let mut best = 0usize;
        let mut best_key = (usize::MAX, u64::MAX);
        for (i, cand) in c.iter().enumerate() {
            let key = (cand.tenant, cand.job);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    /// While the winner can afford its beat nobody is refilled, so the
    /// losers' balances stand still and the winner's falls by one beat
    /// per pick. It keeps winning while it can afford the beat and stays
    /// richer than every loser that can afford theirs (or as rich, when
    /// it wins the `(tenant, job)` tie) — a count in closed form. A
    /// loser of the winner's own tenant shares its balance: no lease.
    fn lease(&self, vault: usize, c: &[Contender], winner: usize) -> Lease {
        let (Some(credit), Some(w)) = (self.credit.get(vault), c.get(winner)) else {
            return Lease::NONE;
        };
        let balance = |t: usize| credit.get(t).copied().unwrap_or(0);
        let cost = w.bytes.max(1);
        let bal = balance(w.tenant);
        // Picks with the winner's balance staying at or above `floor`
        // before each: it falls by `cost` per pick.
        let picks_above = |floor: u64| bal.checked_sub(floor).map_or(0, |room| room / cost + 1);
        let mut picks = picks_above(cost);
        for (i, l) in c.iter().enumerate() {
            if i == winner {
                continue;
            }
            if l.tenant == w.tenant {
                return Lease::NONE;
            }
            let lb = balance(l.tenant);
            if lb < l.bytes.max(1) {
                continue;
            }
            let floor = if (w.tenant, w.job) < (l.tenant, l.job) {
                lb
            } else {
                lb.saturating_add(1)
            };
            picks = picks.min(picks_above(floor));
        }
        Lease {
            picks: u32::try_from(picks).unwrap_or(u32::MAX),
            ..Lease::UNLIMITED
        }
    }

    fn commit(&mut self, vault: usize, c: &[Contender], winner: usize, picks: u32) {
        let Some(w) = c.get(winner) else { return };
        if let Some(bal) = self
            .credit
            .get_mut(vault)
            .and_then(|credit| credit.get_mut(w.tenant))
        {
            *bal = bal.saturating_sub(w.bytes.max(1).saturating_mul(u64::from(picks)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_util::SimRng;

    fn cont(tenant: usize, job: u64, priority: u8, weight: u64, bytes: u64) -> Contender {
        Contender {
            tenant,
            job,
            priority,
            weight,
            ready: Picos::ZERO,
            bytes,
        }
    }

    #[test]
    fn round_robin_cycles_tenants() {
        let mut rr = RoundRobin::new(3, 2);
        let c = [
            cont(0, 0, 0, 1, 64),
            cont(1, 1, 0, 1, 64),
            cont(2, 2, 0, 1, 64),
        ];
        let first = rr.pick(0, &c);
        assert_eq!(c[first].tenant, 0);
        let second = rr.pick(0, &c);
        assert_eq!(c[second].tenant, 1);
        let third = rr.pick(0, &c);
        assert_eq!(c[third].tenant, 2);
        let wrap = rr.pick(0, &c);
        assert_eq!(c[wrap].tenant, 0);
        // Vault 1 has its own cursor.
        assert_eq!(c[rr.pick(1, &c)].tenant, 0);
    }

    #[test]
    fn round_robin_skips_absent_tenants() {
        let mut rr = RoundRobin::new(3, 1);
        let c = [cont(2, 5, 0, 1, 64)];
        assert_eq!(rr.pick(0, &c), 0);
        // Cursor advanced past tenant 2 → back to 0.
        let c2 = [cont(0, 6, 0, 1, 64), cont(2, 7, 0, 1, 64)];
        assert_eq!(c2[rr.pick(0, &c2)].tenant, 0);
    }

    #[test]
    fn strict_priority_prefers_high_then_ties_deterministically() {
        let mut sp = StrictPriority;
        let c = [
            cont(0, 0, 1, 1, 64),
            cont(1, 1, 3, 1, 64),
            cont(2, 2, 3, 1, 64),
        ];
        let w = sp.pick(0, &c);
        assert_eq!(c[w].tenant, 1, "highest priority, lowest tenant id");
    }

    #[test]
    fn deficit_weighted_tracks_weight_ratio() {
        // Weight 3 vs 1 on one vault, equal beats: tenant 0 should get
        // ~3× the grants over a long horizon.
        let mut dw = DeficitWeighted::new(vec![3, 1], 1);
        let c = [cont(0, 0, 0, 3, 4096), cont(1, 1, 0, 1, 4096)];
        let mut grants = [0u32; 2];
        for _ in 0..400 {
            let w = dw.pick(0, &c);
            grants[c[w].tenant] += 1;
        }
        let ratio = grants[0] as f64 / grants[1] as f64;
        assert!(
            (2.5..=3.5).contains(&ratio),
            "grant ratio {ratio} should track the 3:1 weights ({grants:?})"
        );
    }

    #[test]
    fn deficit_weighted_survives_huge_beats() {
        // A beat larger than the credit cap can never be afforded; the
        // bounded loop must fall back, not spin or panic.
        let mut dw = DeficitWeighted::new(vec![1, 1], 1);
        let c = [cont(1, 9, 0, 1, u64::MAX), cont(0, 3, 0, 1, u64::MAX)];
        let w = dw.pick(0, &c);
        assert_eq!(c[w].tenant, 0, "fallback is min (tenant, job)");
    }

    #[test]
    fn deficit_refill_saturates_huge_weights() {
        // `Scenario::validate` accepts any weight ≥ 1: the refill
        // quantum and the credit cap saturate instead of overflowing.
        let heavy = u64::MAX / 1000;
        let mut dw = DeficitWeighted::new(vec![heavy, 1], 1);
        let c = [cont(0, 0, 0, heavy, 64), cont(1, 1, 0, 1, 64)];
        assert_eq!(c[dw.pick(0, &c)].tenant, 0);
        assert_eq!(
            dw.credit[0][0],
            u64::MAX - 64,
            "a saturated quantum, less one beat"
        );
        assert_eq!(
            c[dw.pick(0, &c)].tenant,
            0,
            "the heavy tenant stays richest"
        );
    }

    /// Random contenders: tenants from a small set so losers share the
    /// winner's tenant, ready times from a small set so they tie, and
    /// beats from one byte to unaffordable.
    fn random_contenders(rng: &mut SimRng) -> Vec<Contender> {
        const BYTES: [u64; 7] = [1, 8, 64, 4096, 8192, 40_000, u64::MAX];
        (0..rng.gen_range(2usize..5))
            .map(|job| Contender {
                tenant: rng.gen_range(0usize..3),
                job: job as u64,
                priority: rng.gen_range(0u8..2),
                weight: 1,
                ready: Picos(rng.gen_range(0u64..3) * 5),
                bytes: BYTES[rng.gen_range(0usize..BYTES.len())],
            })
            .collect()
    }

    /// `lease` then `commit(m)` against `m` sequential `pick`s, each
    /// with the winner's `ready` moved up inside the lease's bound: the
    /// picks must all go to the winner and leave the same state.
    fn assert_lease_commits_like_picks<A>(a: &mut A, rng: &mut SimRng) -> Result<(), String>
    where
        A: Arbiter + Clone + PartialEq + std::fmt::Debug,
    {
        use sim_util::{prop_assert, prop_assert_eq};
        // Scramble the state (credits, cursors) with earlier picks.
        for _ in 0..rng.gen_range(0usize..6) {
            a.pick(rng.gen_range(0usize..2), &random_contenders(rng));
        }
        let vault = rng.gen_range(0usize..2);
        let mut c = random_contenders(rng);
        let w = a.pick(vault, &c);
        let lease = a.lease(vault, &c, w);
        // Long enough for a whole deficit streak of 8-byte beats, which
        // ends at the refill boundary.
        let m = match rng.gen_range(0usize..3) {
            0 => lease.picks.min(1024),
            _ => rng.gen_range(0u32..=lease.picks.min(40)),
        };
        let mut picked = a.clone();
        let before = c.clone();
        for i in 0..m {
            let (lo, hi) = (c[w].ready.as_ps(), lease.ready_by.as_ps().min(1_000));
            c[w].ready = match rng.gen_range(0usize..3) {
                0 => Picos(hi.max(lo)),
                1 => c[w].ready,
                _ => Picos(rng.gen_range(lo..=hi.max(lo))),
            };
            let got = picked.pick(vault, &c);
            prop_assert_eq!(
                got,
                w,
                "pick {} of a {:?} lease went elsewhere ({:?})",
                i,
                lease,
                c
            );
        }
        a.commit(vault, &before, w, m);
        prop_assert!(
            *a == picked,
            "commit({m}) of {lease:?}: {a:?} vs {picked:?}"
        );
        Ok(())
    }

    #[test]
    fn leases_commit_exactly_like_sequential_picks() {
        use sim_util::{prop_assert, prop_check};
        prop_check!(cases: 256, |rng| {
            let weights = (0..3)
                .map(|_| [1, 2, u64::MAX / 1000][rng.gen_range(0usize..3)])
                .collect();
            assert_lease_commits_like_picks(&mut RoundRobin::new(3, 2), rng)?;
            assert_lease_commits_like_picks(&mut StrictPriority, rng)?;
            assert_lease_commits_like_picks(&mut DeficitWeighted::new(weights, 2), rng)?;
            // Strict priority's ready bound is tight: one past it, the
            // winner loses the next pick.
            let mut sp = StrictPriority;
            let mut c = random_contenders(rng);
            let w = sp.pick(0, &c);
            let lease = sp.lease(0, &c, w);
            if lease.picks > 0 && lease.ready_by < Picos::MAX {
                c[w].ready = lease.ready_by + Picos(1);
                prop_assert!(sp.pick(0, &c) != w, "{:?} is not tight for {:?}", lease, c);
            }
        });
    }

    #[test]
    fn each_policy_leases_the_streaks_it_can_prove() {
        let ready = |c: Contender, ps: u64| Contender {
            ready: Picos(ps),
            ..c
        };
        // Round robin: only against the winner's own tenant.
        let mut rr = RoundRobin::new(2, 1);
        let same = [cont(0, 0, 0, 1, 8), cont(0, 1, 0, 1, 8)];
        let w = rr.pick(0, &same);
        assert_eq!(rr.lease(0, &same, w), Lease::UNLIMITED);
        let other = [cont(0, 0, 0, 1, 8), cont(1, 1, 0, 1, 8)];
        let w = rr.pick(0, &other);
        assert_eq!(rr.lease(0, &other, w), Lease::NONE);

        // Strict priority: unlimited over lower priorities; up to an
        // equal-priority loser's ready, inclusive when the winner wins
        // the tie-break and exclusive when it loses it.
        let sp = StrictPriority;
        let low = [cont(1, 0, 1, 1, 8), cont(0, 1, 0, 1, 8)];
        assert_eq!(sp.lease(0, &low, 0), Lease::UNLIMITED);
        let wins_tie = [cont(0, 0, 1, 1, 8), ready(cont(1, 1, 1, 1, 8), 10)];
        assert_eq!(sp.lease(0, &wins_tie, 0).ready_by, Picos(10));
        let loses_tie = [cont(1, 0, 1, 1, 8), ready(cont(0, 1, 1, 1, 8), 10)];
        assert_eq!(sp.lease(0, &loses_tie, 0).ready_by, Picos(9));

        // Deficit: 8-byte beats against an unaffordable 8 KiB one. The
        // first pick refills both tenants to one quantum and charges
        // the winner one beat; the rest of the quantum is the lease.
        let mut dw = DeficitWeighted::new(vec![1, 1], 1);
        let c = [cont(0, 0, 0, 1, 8), cont(1, 1, 0, 1, 8192)];
        let w = dw.pick(0, &c);
        assert_eq!(w, 0);
        let lease = dw.lease(0, &c, w);
        assert_eq!(lease.picks, (QUANTUM_BYTES / 8 - 1) as u32);
        dw.commit(0, &c, w, lease.picks);
        assert_eq!(dw.credit[0][0], 0, "the lease ends at the refill boundary");
        let shared = [cont(0, 0, 0, 1, 8), cont(0, 1, 0, 1, 8192)];
        assert_eq!(dw.lease(0, &shared, 0), Lease::NONE);
    }

    #[test]
    fn kind_parse_round_trips() {
        for k in ArbiterKind::ALL {
            assert_eq!(ArbiterKind::parse(k.name()).unwrap(), k);
        }
        assert!(ArbiterKind::parse("lottery").is_err());
    }
}
