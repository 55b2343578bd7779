//! The shared, banked L2 cache model: per-bank occupancy queues whose
//! backlog delays miss service — the mechanism behind the lean CMP's L2
//! sensitivity (and the Web workload's 4% loss) in the paper.

/// Kind of L2 bank access, determining occupancy and 2D behaviour.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L2Access {
    /// Fill read for an L1 miss.
    FillRead,
    /// Writeback / dirty eviction from an L1 (write-type: triggers
    /// read-before-write under 2D protection).
    Writeback,
    /// Refill from memory after an L2 miss (write-type).
    MemoryRefill,
}

impl L2Access {
    /// Whether 2D protection converts this access to read-before-write.
    pub fn is_write(&self) -> bool {
        matches!(self, L2Access::Writeback | L2Access::MemoryRefill)
    }
}

/// A banked L2: each bank is busy for `occupancy` cycles per access and
/// requests queue FIFO per bank.
#[derive(Clone, Debug)]
pub struct BankedL2 {
    /// Cycle when each bank becomes free.
    free_at: Vec<u64>,
    /// Cycles a bank is held per plain access.
    occupancy: u64,
    /// Whether writes incur an extra read occupancy (2D protection).
    protected: bool,
}

impl BankedL2 {
    /// Creates an idle banked L2.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0` or `occupancy == 0`.
    pub fn new(banks: usize, occupancy: u64, protected: bool) -> Self {
        assert!(banks > 0, "L2 needs at least one bank");
        assert!(occupancy > 0, "bank occupancy must be nonzero");
        BankedL2 {
            free_at: vec![0; banks],
            occupancy,
            protected,
        }
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.free_at.len()
    }

    /// Whether 2D protection is active.
    pub fn is_protected(&self) -> bool {
        self.protected
    }

    /// Issues an access to `bank` at time `now`; returns
    /// `(wait_cycles, extra_2d_reads)` — the queueing delay the request
    /// experienced before service begins and how many extra reads 2D
    /// coding added.
    ///
    /// # Panics
    ///
    /// Panics if `bank >= banks()`.
    pub fn access(&mut self, bank: usize, now: u64, kind: L2Access) -> (u64, u64) {
        self.access_with_penalty(bank, now, kind, 0)
    }

    /// Like [`BankedL2::access`], but additionally holds the bank for
    /// `penalty` extra cycles — the back-pressure hook for correction
    /// and recovery latency measured by a protected backing store
    /// (`memarray::TwoDArray::read_word_into`): while a bank is busy
    /// correcting, queued requests behind it wait longer, which is how
    /// correction work becomes measurable MSHR and port pressure.
    ///
    /// # Panics
    ///
    /// Panics if `bank >= banks()`.
    pub fn access_with_penalty(
        &mut self,
        bank: usize,
        now: u64,
        kind: L2Access,
        penalty: u64,
    ) -> (u64, u64) {
        assert!(bank < self.free_at.len(), "bank {bank} out of range");
        let start = self.free_at[bank].max(now);
        let wait = start - now;
        let mut hold = self.occupancy + penalty;
        let mut extra = 0;
        if self.protected && kind.is_write() {
            // Read-before-write: the bank is additionally held for the
            // read of the old data. The paper pipelines the parity update
            // itself off the critical path, so only the extra read
            // occupancy is modelled.
            hold += self.occupancy;
            extra = 1;
        }
        self.free_at[bank] = start + hold;
        (wait, extra)
    }

    /// Fraction of time the banks were busy up to `now` (approximate:
    /// based on final reservations).
    pub fn utilization(&self, now: u64) -> f64 {
        if now == 0 {
            return 0.0;
        }
        let busy: u64 = self.free_at.iter().map(|&f| f.min(now)).sum();
        busy as f64 / (now as f64 * self.free_at.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprotected_reads_queue_fifo() {
        let mut l2 = BankedL2::new(1, 4, false);
        assert_eq!(l2.access(0, 0, L2Access::FillRead), (0, 0));
        // Second access at t=1 waits until t=4.
        assert_eq!(l2.access(0, 1, L2Access::FillRead), (3, 0));
        // After the queue drains, no wait.
        assert_eq!(l2.access(0, 100, L2Access::FillRead), (0, 0));
    }

    #[test]
    fn protection_doubles_write_occupancy() {
        let mut l2 = BankedL2::new(1, 4, true);
        let (w0, e0) = l2.access(0, 0, L2Access::Writeback);
        assert_eq!((w0, e0), (0, 1));
        // Next request sees 8 cycles of occupancy, not 4.
        let (w1, _) = l2.access(0, 0, L2Access::FillRead);
        assert_eq!(w1, 8);
    }

    #[test]
    fn reads_unaffected_by_protection() {
        let mut l2 = BankedL2::new(1, 4, true);
        let (_, extra) = l2.access(0, 0, L2Access::FillRead);
        assert_eq!(extra, 0);
        let (w, _) = l2.access(0, 0, L2Access::FillRead);
        assert_eq!(w, 4);
    }

    #[test]
    fn banks_are_independent() {
        let mut l2 = BankedL2::new(2, 4, false);
        l2.access(0, 0, L2Access::FillRead);
        let (w, _) = l2.access(1, 0, L2Access::FillRead);
        assert_eq!(w, 0);
    }

    #[test]
    fn memory_refill_is_write_type() {
        assert!(L2Access::MemoryRefill.is_write());
        assert!(L2Access::Writeback.is_write());
        assert!(!L2Access::FillRead.is_write());
    }

    #[test]
    fn utilization_bounded() {
        let mut l2 = BankedL2::new(4, 4, false);
        for t in 0..100 {
            l2.access((t % 4) as usize, t as u64, L2Access::FillRead);
        }
        let u = l2.utilization(100);
        assert!(u > 0.0 && u <= 1.0);
    }
}
