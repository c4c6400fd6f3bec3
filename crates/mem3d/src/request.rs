//! Memory requests and their resolved outcomes.

use crate::{Location, Picos};

/// Direction of a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Data flows from memory to the FPGA.
    Read,
    /// Data flows from the FPGA to memory.
    Write,
}

/// A single memory request against one row of one bank.
///
/// Requests never span a row boundary; the [`crate::MemorySystem`] splits
/// larger transfers before they reach a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Request {
    /// Where the access lands.
    pub loc: Location,
    /// Transfer size in bytes.
    pub bytes: u32,
    /// Read or write.
    pub dir: Direction,
    /// Earliest time the request may start (arrival at the controller).
    pub at: Picos,
}

#[cfg(test)]
impl Request {
    /// A read request arriving at time zero.
    pub(crate) fn read(loc: Location, bytes: u32) -> Self {
        Request {
            loc,
            bytes,
            dir: Direction::Read,
            at: Picos::ZERO,
        }
    }

    /// A write request arriving at time zero.
    pub(crate) fn write(loc: Location, bytes: u32) -> Self {
        Request {
            loc,
            bytes,
            dir: Direction::Write,
            at: Picos::ZERO,
        }
    }

    /// Returns the same request with a different arrival time.
    pub(crate) fn arriving_at(mut self, at: Picos) -> Self {
        self.at = at;
        self
    }
}

/// The resolved schedule of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestOutcome {
    /// When the first data beat crossed the TSVs.
    pub data_start: Picos,
    /// When the last data beat crossed the TSVs (completion time).
    pub done: Picos,
    /// Whether the access hit the open row (no activate needed).
    pub row_hit: bool,
}

impl RequestOutcome {
    /// End-to-end latency relative to the request arrival.
    pub fn latency_from(&self, arrival: Picos) -> Picos {
        self.done.saturating_sub(arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_direction_and_time() {
        let loc = Location::ZERO;
        let r = Request::read(loc, 8);
        assert_eq!(r.dir, Direction::Read);
        assert_eq!(r.at, Picos::ZERO);
        let w = Request::write(loc, 8).arriving_at(Picos(77));
        assert_eq!(w.dir, Direction::Write);
        assert_eq!(w.at, Picos(77));
    }

    #[test]
    fn outcome_latency_saturates() {
        let o = RequestOutcome {
            data_start: Picos(5),
            done: Picos(10),
            row_hit: true,
        };
        assert_eq!(o.latency_from(Picos(2)), Picos(8));
        assert_eq!(o.latency_from(Picos(50)), Picos::ZERO);
    }
}
