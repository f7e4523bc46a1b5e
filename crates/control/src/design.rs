//! The shared design-workspace bundle threaded through every controller
//! synthesis of a fleet.
//!
//! The workspace tier of `cps-linalg` ([`RiccatiWorkspace`],
//! [`ExpmWorkspace`], the reusable LU factorisations inside them) removes
//! the per-iteration temporaries of the DARE recursion and the matrix
//! exponential — but the seed design path constructed a fresh workspace per
//! call, so a fleet design still paid the construction cost once per
//! discretisation and once per controller. [`DesignWorkspace`] closes that
//! gap: it is a small dimension-keyed pool of Riccati and exponential
//! workspaces that one design worker owns and threads through *all* of its
//! syntheses, re-allocating only when an application with a previously
//! unseen state/input dimension appears. Every synthesis takes it:
//! [`crate::DelayedLtiSystem::from_continuous`], [`crate::design_lqr`] and
//! [`crate::design_switched_pair`] have no other signature, and a one-off
//! design passes `&mut DesignWorkspace::new()`.
//!
//! A design threaded through a (warm or fresh, shared or private)
//! `DesignWorkspace` is **bit-identical** whatever the pool held before —
//! the property the fleet-designer parity suite asserts.

use cps_linalg::{ExpmWorkspace, RiccatiWorkspace};

/// Dimension-keyed pool of solver workspaces for one design worker.
///
/// Fleets are dimensionally heterogeneous (the case study mixes first- and
/// second-order plants), so the pool holds one workspace per distinct
/// dimension, found by linear scan — the pool has a handful of entries at
/// most, and a design performs thousands of solver iterations per lookup.
#[derive(Debug, Default)]
pub struct DesignWorkspace {
    riccati: Vec<RiccatiWorkspace>,
    expm: Vec<ExpmWorkspace>,
}

impl DesignWorkspace {
    /// Creates an empty pool; workspaces are allocated on first use per
    /// dimension.
    pub fn new() -> Self {
        DesignWorkspace::default()
    }

    /// The Riccati workspace for an `n`-state, `m`-input problem, allocated
    /// on first request for these dimensions and reused afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `m == 0` (propagated from
    /// [`RiccatiWorkspace::new`]).
    pub fn riccati(&mut self, n: usize, m: usize) -> &mut RiccatiWorkspace {
        let index = match self.riccati.iter().position(|ws| ws.dims() == (n, m)) {
            Some(index) => index,
            None => {
                self.riccati.push(RiccatiWorkspace::new(n, m));
                self.riccati.len() - 1
            }
        };
        &mut self.riccati[index]
    }

    /// The exponential workspace for `n × n` matrices, allocated on first
    /// request for this order and reused afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (propagated from [`ExpmWorkspace::new`]).
    pub fn expm(&mut self, n: usize) -> &mut ExpmWorkspace {
        let index = match self.expm.iter().position(|ws| ws.dim() == n) {
            Some(index) => index,
            None => {
                self.expm.push(ExpmWorkspace::new(n));
                self.expm.len() - 1
            }
        };
        &mut self.expm[index]
    }

    /// Number of distinct `(state, input)` dimensions the pool currently
    /// holds Riccati workspaces for.
    pub fn riccati_pool_size(&self) -> usize {
        self.riccati.len()
    }

    /// Number of distinct matrix orders the pool currently holds exponential
    /// workspaces for.
    pub fn expm_pool_size(&self) -> usize {
        self.expm.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_workspaces_per_dimension() {
        let mut ws = DesignWorkspace::new();
        assert_eq!(ws.riccati_pool_size(), 0);
        assert_eq!(ws.expm_pool_size(), 0);
        assert_eq!(ws.riccati(3, 1).dims(), (3, 1));
        assert_eq!(ws.riccati(3, 1).dims(), (3, 1));
        assert_eq!(ws.riccati(2, 1).dims(), (2, 1));
        assert_eq!(ws.riccati_pool_size(), 2);
        assert_eq!(ws.expm(2).dim(), 2);
        assert_eq!(ws.expm(3).dim(), 3);
        assert_eq!(ws.expm(2).dim(), 2);
        assert_eq!(ws.expm_pool_size(), 2);
    }
}
