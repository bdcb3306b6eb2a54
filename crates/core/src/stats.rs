//! Execution statistics: the atomic/regular write accounting behind
//! Figure 5 of the paper.

use std::ops::AddAssign;

/// Counts of output-matrix update operations performed by an SpMM kernel.
///
/// The paper's key observation is that MergePath-SpMM confines atomic
/// operations to partial start/end rows while GNNAdvisor updates *every*
/// output row atomically; Figure 5 plots exactly this distribution for
/// MergePath-SpMM at dimension 16.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Output-row updates performed with atomic accumulation. Each counts
    /// one thread-local partial result flushed atomically (Algorithm 2
    /// lines 5, 9, 13) — or, for all-atomic kernels, one group flush.
    pub atomic_row_updates: usize,
    /// Output-row updates performed with regular (non-atomic) writes
    /// (Algorithm 2 line 15).
    pub regular_row_writes: usize,
    /// Output-row updates deferred to a post-barrier **serial phase** (one
    /// per carry segment; only the merge-path serial-fixup baseline
    /// produces these).
    pub serial_row_updates: usize,
    /// Non-zeros whose partial products were accumulated behind an atomic
    /// row update.
    pub atomic_nnz: usize,
    /// Non-zeros accumulated behind regular writes.
    pub regular_nnz: usize,
    /// Non-zeros processed in a *serial* fix-up phase (only non-zero for
    /// the merge-path serial-fixup baseline).
    pub serial_nnz: usize,
}

impl WriteStats {
    /// Total output-row updates of any kind.
    pub fn total_updates(&self) -> usize {
        self.atomic_row_updates + self.regular_row_writes + self.serial_row_updates
    }

    /// Total non-zeros processed.
    pub fn total_nnz(&self) -> usize {
        self.atomic_nnz + self.regular_nnz + self.serial_nnz
    }

    /// Fraction of output updates that were atomic, in `[0, 1]`
    /// (0 when no updates were performed).
    pub fn atomic_update_fraction(&self) -> f64 {
        let total = self.total_updates();
        if total == 0 {
            0.0
        } else {
            self.atomic_row_updates as f64 / total as f64
        }
    }

    /// Fraction of non-zeros processed behind atomic updates, in `[0, 1]`.
    ///
    /// This is the quantity Figure 5 plots: how much of the kernel's
    /// multiply-accumulate work funnels through synchronized output
    /// updates.
    pub fn atomic_nnz_fraction(&self) -> f64 {
        let total = self.total_nnz();
        if total == 0 {
            0.0
        } else {
            self.atomic_nnz as f64 / total as f64
        }
    }
}

impl AddAssign for WriteStats {
    fn add_assign(&mut self, rhs: Self) {
        self.atomic_row_updates += rhs.atomic_row_updates;
        self.regular_row_writes += rhs.regular_row_writes;
        self.serial_row_updates += rhs.serial_row_updates;
        self.atomic_nnz += rhs.atomic_nnz;
        self.regular_nnz += rhs.regular_nnz;
        self.serial_nnz += rhs.serial_nnz;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_handle_empty_stats() {
        let s = WriteStats::default();
        assert_eq!(s.atomic_update_fraction(), 0.0);
        assert_eq!(s.atomic_nnz_fraction(), 0.0);
    }

    #[test]
    fn accumulation_and_fractions() {
        let mut a = WriteStats {
            atomic_row_updates: 1,
            regular_row_writes: 3,
            serial_row_updates: 0,
            atomic_nnz: 10,
            regular_nnz: 30,
            serial_nnz: 0,
        };
        let b = WriteStats {
            atomic_row_updates: 1,
            regular_row_writes: 0,
            serial_row_updates: 1,
            atomic_nnz: 10,
            regular_nnz: 0,
            serial_nnz: 5,
        };
        a += b;
        assert_eq!(a.total_updates(), 6);
        assert_eq!(a.total_nnz(), 55);
        assert!((a.atomic_update_fraction() - 2.0 / 6.0).abs() < 1e-12);
        assert!((a.atomic_nnz_fraction() - 20.0 / 55.0).abs() < 1e-12);
    }
}
