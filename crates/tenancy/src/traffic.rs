//! Deterministic traffic generation: when each tenant's jobs arrive.
//!
//! All sampling is **integer arithmetic on forked [`SimRng`] streams**:
//! tenant `i` draws from `root.fork(i)`, so adding, removing or
//! reordering other tenants never perturbs a tenant's own arrival
//! schedule, and the same scenario seed reproduces the same schedule on
//! any thread count.

use mem3d::Picos;
use sim_util::SimRng;

use crate::TenancyError;

/// Inter-arrival process of an open-loop tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// All jobs submitted at time zero (a backlogged tenant).
    Immediate,
    /// Fixed period with uniform jitter in `[0, jitter]` per arrival.
    Periodic {
        /// Base inter-arrival gap.
        period: Picos,
        /// Uniform jitter added to each gap (0 for a strict clock).
        jitter: Picos,
    },
    /// Independent uniform gaps in `[lo, hi]`.
    Uniform {
        /// Shortest gap.
        lo: Picos,
        /// Longest gap (inclusive).
        hi: Picos,
    },
    /// Bursts of `burst` jobs `spacing` apart, bursts separated by
    /// `gap` — the adversarial pattern for admission control.
    Bursty {
        /// Jobs per burst (≥ 1).
        burst: u64,
        /// Gap between jobs inside a burst.
        spacing: Picos,
        /// Gap between the last job of a burst and the first of the
        /// next.
        gap: Picos,
    },
}

impl Arrivals {
    /// The next inter-arrival gap, `None` past the clock ceiling.
    /// `index` is the 0-based arrival number (the first job's gap is
    /// measured from time zero).
    fn gap(&self, rng: &mut SimRng, index: u64) -> Option<Picos> {
        Some(match *self {
            Arrivals::Immediate => Picos::ZERO,
            Arrivals::Periodic { period, jitter } => later(period, Picos::ZERO, jitter, rng)?,
            Arrivals::Uniform { lo, hi } => {
                let (lo, hi) = (lo.as_ps().min(hi.as_ps()), lo.as_ps().max(hi.as_ps()));
                Picos(rng.gen_range(lo..=hi))
            }
            Arrivals::Bursty {
                burst,
                spacing,
                gap,
            } => {
                let burst = burst.max(1);
                if index.is_multiple_of(burst) && index > 0 {
                    gap
                } else if index == 0 {
                    Picos::ZERO
                } else {
                    spacing
                }
            }
        })
    }
}

/// `at + fixed` plus a uniform draw in `[0, jitter]` (no draw when
/// `jitter` is zero), or `None` past the `u64` picosecond clock.
fn later(at: Picos, fixed: Picos, jitter: Picos, rng: &mut SimRng) -> Option<Picos> {
    let j = if jitter == Picos::ZERO {
        0
    } else {
        rng.gen_range(0..=jitter.as_ps())
    };
    at.as_ps()
        .checked_add(fixed.as_ps())?
        .checked_add(j)
        .map(Picos)
}

/// How a tenant generates load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Open loop: `jobs` arrivals on a fixed schedule, regardless of
    /// service progress (arrivals can pile up behind a slow policy —
    /// that *is* the experiment).
    Open {
        /// The inter-arrival process.
        arrivals: Arrivals,
        /// Total jobs submitted.
        jobs: u64,
    },
    /// Closed loop: `clients` clients each submit a job, wait for its
    /// completion (or rejection), think, and submit the next —
    /// `jobs_per_client` times. Load self-regulates with service speed.
    Closed {
        /// Concurrent clients.
        clients: u64,
        /// Jobs each client submits in sequence.
        jobs_per_client: u64,
        /// Fixed think time between a completion and the next
        /// submission.
        think: Picos,
        /// Uniform jitter in `[0, think_jitter]` added to each think.
        think_jitter: Picos,
    },
}

impl Traffic {
    /// Total jobs this tenant will submit over the whole run,
    /// saturating at `u64::MAX` (a scenario whose count overflows fails
    /// validation).
    pub fn total_jobs(&self) -> u64 {
        self.checked_total_jobs().unwrap_or(u64::MAX)
    }

    /// [`total_jobs`](Self::total_jobs), `None` when
    /// `clients × jobs_per_client` overflows.
    pub(crate) fn checked_total_jobs(&self) -> Option<u64> {
        match *self {
            Traffic::Open { jobs, .. } => Some(jobs),
            Traffic::Closed {
                clients,
                jobs_per_client,
                ..
            } => clients.checked_mul(jobs_per_client),
        }
    }
}

/// One tenant's live arrival source: the next arrival time for open
/// traffic (each later one drawn when its predecessor is consumed, so a
/// source costs the same at any job count), completion-driven
/// resubmission state for closed traffic. All randomness is drawn from
/// the tenant's forked stream in a fixed order, so the schedule is a
/// pure function of `(seed, tenant_id)`.
#[derive(Debug)]
pub(crate) struct ArrivalSource {
    rng: SimRng,
    kind: Traffic,
    tenant_id: u64,
    /// Open loop: the next arrival time, `None` once all are out.
    next_open: Option<Picos>,
    /// Open loop: arrivals drawn so far, `next_open` included.
    drawn: u64,
    /// Closed loop: next submission time per client, `None` once the
    /// client is done or waiting on a completion.
    clients: Vec<ClientState>,
}

#[derive(Debug, Clone, Copy)]
struct ClientState {
    next_at: Option<Picos>,
    remaining: u64,
}

impl ArrivalSource {
    /// Builds tenant `tenant_id`'s source from the scenario's root rng.
    ///
    /// # Errors
    ///
    /// [`TenancyError::Config`] when the first open-loop arrival falls
    /// past the `u64` picosecond clock; a later one fails when it is
    /// drawn ([`pop`](Self::pop)).
    pub(crate) fn new(
        root: &SimRng,
        tenant_id: u64,
        kind: Traffic,
    ) -> Result<ArrivalSource, TenancyError> {
        let mut src = ArrivalSource {
            rng: root.fork(tenant_id),
            kind,
            tenant_id,
            next_open: None,
            drawn: 0,
            clients: Vec::new(),
        };
        match kind {
            Traffic::Open { .. } => src.draw_open(Picos::ZERO)?,
            Traffic::Closed {
                clients: n,
                jobs_per_client,
                ..
            } => {
                for _ in 0..n {
                    src.clients.push(ClientState {
                        next_at: (jobs_per_client > 0).then_some(Picos::ZERO),
                        remaining: jobs_per_client,
                    });
                }
            }
        }
        Ok(src)
    }

    /// Open loop: draws the arrival after the one at `prev`, if any
    /// remain.
    fn draw_open(&mut self, prev: Picos) -> Result<(), TenancyError> {
        let Traffic::Open { arrivals, jobs } = self.kind else {
            return Ok(());
        };
        if self.drawn >= jobs {
            return Ok(());
        }
        let i = self.drawn;
        let t = arrivals
            .gap(&mut self.rng, i)
            .and_then(|g| prev.as_ps().checked_add(g.as_ps()))
            .map(Picos)
            .ok_or_else(|| {
                TenancyError::Config(format!(
                    "tenant {}: arrival {i} falls past the picosecond clock",
                    self.tenant_id
                ))
            })?;
        self.next_open = Some(t);
        self.drawn += 1;
        Ok(())
    }

    /// The earliest pending arrival, as `(time, client)`; `None` when
    /// nothing is currently pending (closed-loop clients may all be
    /// waiting on completions).
    pub(crate) fn peek(&self) -> Option<(Picos, usize)> {
        if let Some(t) = self.next_open {
            return Some((t, 0));
        }
        self.clients
            .iter()
            .enumerate()
            .filter_map(|(c, s)| s.next_at.map(|t| (t, c)))
            .min()
    }

    /// Consumes the arrival returned by [`peek`](Self::peek); an open
    /// source draws its next arrival.
    ///
    /// # Errors
    ///
    /// [`TenancyError::Config`] when the next open-loop arrival falls
    /// past the `u64` picosecond clock.
    pub(crate) fn pop(&mut self, client: usize) -> Result<(), TenancyError> {
        if let Some(t) = self.next_open.take() {
            return self.draw_open(t);
        }
        if let Some(s) = self.clients.get_mut(client) {
            s.next_at = None;
            s.remaining = s.remaining.saturating_sub(1);
        }
        Ok(())
    }

    /// Closed loop only: client `client`'s job finished (or was
    /// dropped) at `at`; schedule its next submission after the think
    /// time. Open-loop sources ignore this.
    ///
    /// # Errors
    ///
    /// [`TenancyError::Config`] when the next submission falls past
    /// the `u64` picosecond clock.
    pub(crate) fn job_done(&mut self, client: usize, at: Picos) -> Result<(), TenancyError> {
        let Traffic::Closed {
            think,
            think_jitter,
            ..
        } = self.kind
        else {
            return Ok(());
        };
        let Some(s) = self.clients.get_mut(client) else {
            return Ok(());
        };
        if s.remaining == 0 {
            return Ok(());
        }
        let next = later(at, think, think_jitter, &mut self.rng).ok_or_else(|| {
            TenancyError::Config(format!(
                "client {client}'s think time runs past the picosecond clock"
            ))
        })?;
        s.next_at = Some(next);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_schedules_are_monotonic_and_reproducible() {
        let root = SimRng::seed_from_u64(7);
        let kind = Traffic::Open {
            arrivals: Arrivals::Uniform {
                lo: Picos(10),
                hi: Picos(100),
            },
            jobs: 20,
        };
        let mut a = ArrivalSource::new(&root, 3, kind).unwrap();
        let mut b = ArrivalSource::new(&root, 3, kind).unwrap();
        let mut last = Picos::ZERO;
        for _ in 0..20 {
            let (ta, ca) = a.peek().unwrap();
            let (tb, _) = b.peek().unwrap();
            assert_eq!(ta, tb, "same (seed, tenant) must reproduce");
            assert!(ta >= last);
            last = ta;
            a.pop(ca).unwrap();
            b.pop(ca).unwrap();
        }
        assert!(a.peek().is_none());
    }

    #[test]
    fn forked_tenants_differ() {
        let root = SimRng::seed_from_u64(7);
        let kind = Traffic::Open {
            arrivals: Arrivals::Uniform {
                lo: Picos(10),
                hi: Picos(1_000_000),
            },
            jobs: 4,
        };
        let a = ArrivalSource::new(&root, 0, kind).unwrap();
        let b = ArrivalSource::new(&root, 1, kind).unwrap();
        assert_ne!(a.peek(), b.peek(), "distinct tenants get distinct streams");
    }

    #[test]
    fn bursty_pattern_gaps() {
        let root = SimRng::seed_from_u64(1);
        let kind = Traffic::Open {
            arrivals: Arrivals::Bursty {
                burst: 2,
                spacing: Picos(5),
                gap: Picos(100),
            },
            jobs: 4,
        };
        let mut src = ArrivalSource::new(&root, 0, kind).unwrap();
        let mut times = Vec::new();
        while let Some((t, c)) = src.peek() {
            times.push(t.as_ps());
            src.pop(c).unwrap();
        }
        assert_eq!(times, vec![0, 5, 105, 110]);
    }

    #[test]
    fn closed_loop_waits_for_completions() {
        let root = SimRng::seed_from_u64(1);
        let kind = Traffic::Closed {
            clients: 2,
            jobs_per_client: 2,
            think: Picos(50),
            think_jitter: Picos::ZERO,
        };
        let mut src = ArrivalSource::new(&root, 0, kind).unwrap();
        // Both clients pending at t = 0; client 0 sorts first.
        assert_eq!(src.peek(), Some((Picos::ZERO, 0)));
        src.pop(0).unwrap();
        assert_eq!(src.peek(), Some((Picos::ZERO, 1)));
        src.pop(1).unwrap();
        assert_eq!(src.peek(), None, "all clients in flight");
        src.job_done(0, Picos(1000)).unwrap();
        assert_eq!(src.peek(), Some((Picos(1050), 0)));
        src.pop(0).unwrap();
        src.job_done(0, Picos(3000)).unwrap();
        assert_eq!(src.peek(), None, "client 0 exhausted its budget");
    }

    /// The schedule as the source used to materialize it up front:
    /// every gap drawn in order from the tenant's forked stream.
    fn eager_schedule(root: &SimRng, tenant_id: u64, arrivals: Arrivals, jobs: u64) -> Vec<u64> {
        let mut rng = root.fork(tenant_id);
        let mut t = 0u64;
        (0..jobs)
            .map(|i| {
                t += arrivals.gap(&mut rng, i).unwrap().as_ps();
                t
            })
            .collect()
    }

    #[test]
    fn lazy_arrivals_follow_the_eager_schedule() {
        let root = SimRng::seed_from_u64(5);
        for arrivals in [
            Arrivals::Immediate,
            Arrivals::Periodic {
                period: Picos(1_000),
                jitter: Picos(300),
            },
            Arrivals::Uniform {
                lo: Picos(10),
                hi: Picos(5_000),
            },
            Arrivals::Bursty {
                burst: 7,
                spacing: Picos(20),
                gap: Picos(9_000),
            },
        ] {
            let expect = eager_schedule(&root, 2, arrivals, 1000);
            let kind = Traffic::Open {
                arrivals,
                jobs: 1 << 40,
            };
            let mut src = ArrivalSource::new(&root, 2, kind).unwrap();
            for (i, &t) in expect.iter().enumerate() {
                let (at, c) = src.peek().unwrap();
                assert_eq!((at.as_ps(), c), (t, 0), "{arrivals:?} arrival {i}");
                src.pop(c).unwrap();
            }
            assert!(src.peek().is_some(), "{arrivals:?}: more than 1000 remain");

            // A short source ends exactly after its last arrival.
            let kind = Traffic::Open { arrivals, jobs: 3 };
            let mut src = ArrivalSource::new(&root, 2, kind).unwrap();
            for &t in &expect[..3] {
                assert_eq!(src.peek(), Some((Picos(t), 0)));
                src.pop(0).unwrap();
            }
            assert_eq!(src.peek(), None);
        }
    }

    #[test]
    fn an_arrival_past_the_clock_fails_when_drawn() {
        let root = SimRng::seed_from_u64(3);
        let open = |arrivals| Traffic::Open {
            arrivals,
            jobs: 1 << 20,
        };
        // Arrivals at u64::MAX / 2 and u64::MAX - 1; the third cannot
        // fit, and random gaps over the whole clock overflow within a
        // few dozen draws.
        for (arrivals, most) in [
            (
                Arrivals::Periodic {
                    period: Picos(u64::MAX / 2),
                    jitter: Picos::ZERO,
                },
                1,
            ),
            (
                Arrivals::Uniform {
                    lo: Picos(1),
                    hi: Picos(u64::MAX),
                },
                64,
            ),
        ] {
            let mut src = ArrivalSource::new(&root, 0, open(arrivals)).unwrap();
            let mut popped = 0u64;
            let err = loop {
                let (_, c) = src.peek().unwrap();
                match src.pop(c) {
                    Ok(()) => popped += 1,
                    Err(e) => break e,
                }
            };
            assert!(matches!(err, TenancyError::Config(_)), "{err:?}");
            assert!(popped <= most, "{arrivals:?}: {popped} arrivals fit");
        }
    }
}
