//! The Table I microbenchmark suite and the Table II runner.

use crate::paper;
use hvx_core::{Error, HvKind, Hypervisor, HypervisorExt, SimBuilder};
use hvx_engine::Cycles;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The seven microbenchmarks of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Micro {
    /// Transition from VM to hypervisor and return without doing any
    /// work — the bidirectional base transition cost.
    Hypercall,
    /// Trap from VM to the emulated interrupt controller and return.
    InterruptControllerTrap,
    /// Virtual IPI from one VCPU to another on a different PCPU.
    VirtualIpi,
    /// VM acknowledging and completing a virtual interrupt.
    VirtualIrqCompletion,
    /// Switch from one VM to another on the same physical core.
    VmSwitch,
    /// VM driver signal → virtual I/O device receives it.
    IoLatencyOut,
    /// Virtual I/O device signal → VM receives the virtual interrupt.
    IoLatencyIn,
}

impl Micro {
    /// All seven, in Table I/II row order.
    pub const ALL: [Micro; 7] = [
        Micro::Hypercall,
        Micro::InterruptControllerTrap,
        Micro::VirtualIpi,
        Micro::VirtualIrqCompletion,
        Micro::VmSwitch,
        Micro::IoLatencyOut,
        Micro::IoLatencyIn,
    ];

    /// The Table I description of this microbenchmark.
    pub fn description(self) -> &'static str {
        match self {
            Micro::Hypercall => {
                "Transition from VM to hypervisor and return to VM without doing \
                 any work in the hypervisor. Measures bidirectional base \
                 transition cost of hypervisor operations."
            }
            Micro::InterruptControllerTrap => {
                "Trap from VM to emulated interrupt controller then return to VM. \
                 Measures a frequent operation for many device drivers and \
                 baseline for accessing I/O devices emulated in the hypervisor."
            }
            Micro::VirtualIpi => {
                "Issue a virtual IPI from a VCPU to another VCPU running on a \
                 different PCPU, both PCPUs executing VM code. Measures time \
                 between sending the virtual IPI until the receiving VCPU \
                 handles it, a frequent operation in multi-core OSes."
            }
            Micro::VirtualIrqCompletion => {
                "VM acknowledging and completing a virtual interrupt. Measures a \
                 frequent operation that happens for every injected virtual \
                 interrupt."
            }
            Micro::VmSwitch => {
                "Switch from one VM to another on the same physical core. \
                 Measures a central cost when oversubscribing physical CPUs."
            }
            Micro::IoLatencyOut => {
                "Measures latency between a driver in the VM signaling the \
                 virtual I/O device in the hypervisor and the virtual I/O \
                 device receiving the signal."
            }
            Micro::IoLatencyIn => {
                "Measures latency between the virtual I/O device in the \
                 hypervisor signaling the VM and the VM receiving the \
                 corresponding virtual interrupt."
            }
        }
    }

    /// Runs this microbenchmark once on `hv` and returns the measured
    /// cycles.
    pub fn run_once(self, hv: &mut dyn Hypervisor) -> Cycles {
        match self {
            Micro::Hypercall => hv.hypercall(0),
            Micro::InterruptControllerTrap => hv.gicd_trap(0),
            Micro::VirtualIpi => hv.virtual_ipi(0, 1),
            Micro::VirtualIrqCompletion => hv.virq_complete(0),
            Micro::VmSwitch => hv.vm_switch(),
            Micro::IoLatencyOut => hv.io_latency_out(0),
            Micro::IoLatencyIn => hv.io_latency_in(0),
        }
    }

    /// Runs `iters` iterations with barriers between them and returns the
    /// mean (the framework of §IV). Iterations fold into a streaming
    /// accumulator — no per-sample storage — and the streaming mean is
    /// bit-identical to the stored-samples mean.
    pub fn run(self, hv: &mut dyn Hypervisor, iters: usize) -> Cycles {
        hv.sample_streaming(iters, |h| self.run_once(h))
            .summary()
            .mean_cycles()
    }
}

impl fmt::Display for Micro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Micro::Hypercall => "Hypercall",
            Micro::InterruptControllerTrap => "Interrupt Controller Trap",
            Micro::VirtualIpi => "Virtual IPI",
            Micro::VirtualIrqCompletion => "Virtual IRQ Completion",
            Micro::VmSwitch => "VM Switch",
            Micro::IoLatencyOut => "I/O Latency Out",
            Micro::IoLatencyIn => "I/O Latency In",
        };
        f.pad(s)
    }
}

/// One reproduced cell of Table II.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Cell {
    /// Configuration measured.
    pub hv: HvKind,
    /// Our measured cycles.
    pub measured: u64,
    /// The paper's published cycles.
    pub paper: u64,
    /// Relative error, `(measured - paper) / paper`.
    pub error: f64,
}

/// The reproduced Table II.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2 {
    /// One row per microbenchmark, 4 cells each.
    pub rows: Vec<(Micro, [Cell; 4])>,
}

impl Table2 {
    /// Runs the full microbenchmark suite on all four measured
    /// configurations.
    ///
    /// # Errors
    ///
    /// Propagates configuration failures (e.g. a rejected cost
    /// perturbation) so the runner can degrade the artifact.
    pub fn measure(iters: usize) -> Result<Table2, Error> {
        let mut hvs: Vec<Box<dyn Hypervisor>> = Vec::with_capacity(paper::COLUMNS.len());
        for kind in paper::COLUMNS {
            hvs.push(SimBuilder::new(kind).build()?.into_inner());
        }
        let mut rows = Vec::new();
        for (mi, micro) in Micro::ALL.into_iter().enumerate() {
            let paper_row = paper::TABLE2[mi].1;
            let mut cells = Vec::new();
            for (ci, hv) in hvs.iter_mut().enumerate() {
                let measured = micro.run(hv.as_mut(), iters).as_u64();
                let paper = paper_row[ci];
                cells.push(Cell {
                    hv: paper::COLUMNS[ci],
                    measured,
                    paper,
                    error: (measured as f64 - paper as f64) / paper as f64,
                });
            }
            // Static invariant: `paper::COLUMNS` has exactly four
            // entries, so the per-row cell vector always converts.
            rows.push((micro, cells.try_into().expect("four columns")));
        }
        Ok(Table2 { rows })
    }

    /// Largest absolute relative error across all 28 cells.
    pub fn worst_error(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|(_, cells)| cells.iter())
            .map(|c| c.error.abs())
            .fold(0.0, f64::max)
    }

    /// Renders the table in the paper's layout, with per-cell residuals.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28}{:>14}{:>14}{:>14}{:>14}\n",
            "Microbenchmark", "KVM ARM", "Xen ARM", "KVM x86", "Xen x86"
        ));
        out.push_str(&"-".repeat(28 + 4 * 14));
        out.push('\n');
        for (micro, cells) in &self.rows {
            out.push_str(&format!("{:<28}", micro.to_string()));
            for c in cells {
                out.push_str(&format!("{:>14}", Cycles::new(c.measured).to_string()));
            }
            out.push('\n');
            out.push_str(&format!("{:<28}", "  (paper / error)"));
            for c in cells {
                out.push_str(&format!(
                    "{:>14}",
                    format!("{} {:+.1}%", Cycles::new(c.paper), c.error * 100.0)
                ));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_covers_table_i() {
        assert_eq!(Micro::ALL.len(), 7);
        for m in Micro::ALL {
            assert!(!m.description().is_empty());
            assert!(!m.to_string().is_empty());
        }
    }

    #[test]
    fn table2_reproduces_within_five_percent() {
        let t = Table2::measure(3).unwrap();
        assert_eq!(t.rows.len(), 7);
        assert!(
            t.worst_error() < 0.05,
            "worst Table II residual {:.1}% exceeds 5%:\n{}",
            t.worst_error() * 100.0,
            t.render()
        );
    }

    #[test]
    fn measurements_are_deterministic_across_iterations() {
        let a = Table2::measure(2).unwrap();
        let b = Table2::measure(5).unwrap();
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            for (ca, cb) in ra.1.iter().zip(&rb.1) {
                assert_eq!(ca.measured, cb.measured);
            }
        }
    }

    #[test]
    fn render_contains_all_rows_and_columns() {
        let t = Table2::measure(1).unwrap();
        let s = t.render();
        for (m, _) in &t.rows {
            assert!(s.contains(&m.to_string()));
        }
        assert!(s.contains("KVM ARM"));
        assert!(s.contains("Xen x86"));
    }
}
