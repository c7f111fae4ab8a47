//! Scale robustness of the workload catalog: every Figure 4 workload
//! must complete on every hypervisor configuration when its request
//! counts are multiplied well beyond the calibrated defaults, and the
//! disk path must honour request sizes instead of panicking or reading
//! out of range.

use hvx::core::{Error, HvKind, SimBuilder, VirqPolicy, Workload};
use hvx::suite::workloads::{self, DiskDevice, Mix};
use proptest::prelude::*;

/// The calibrated mix of a catalog workload, by Figure 4 name.
fn catalog_mix(workload: Workload) -> Mix {
    workloads::catalog()
        .into_iter()
        .find(|w| w.name == workload.catalog_name())
        .map(|w| w.mix)
        .unwrap_or_else(|| panic!("{workload} missing from the catalog"))
}

/// Scales the closed-loop request count of a mix, leaving per-request
/// parameters untouched.
fn scaled(mix: Mix, scale: u32) -> Mix {
    match mix {
        Mix::CpuBound {
            unit_work,
            ticks_per_unit,
            units,
        } => Mix::CpuBound {
            unit_work,
            ticks_per_unit,
            units: units * scale,
        },
        Mix::IpiBound {
            unit_work,
            ipis_per_unit,
            units,
        } => Mix::IpiBound {
            unit_work,
            ipis_per_unit,
            units: units * scale,
        },
        Mix::NetRr { transactions } => Mix::NetRr {
            transactions: transactions * scale,
        },
        Mix::StreamRx {
            chunks,
            chunk_len,
            bursts,
            link_mbit,
        } => Mix::StreamRx {
            chunks,
            chunk_len,
            bursts: bursts * scale,
            link_mbit,
        },
        Mix::StreamTx {
            chunks,
            chunk_len,
            bursts,
            tso_capped_chunks,
            link_mbit,
        } => Mix::StreamTx {
            chunks,
            chunk_len,
            bursts: bursts * scale,
            tso_capped_chunks,
            link_mbit,
        },
        Mix::DiskIo {
            requests,
            sectors,
            device,
        } => Mix::DiskIo {
            requests: requests * scale,
            sectors,
            device,
        },
        Mix::RequestServer {
            app_work,
            request_bytes,
            response_chunks,
            events_x2,
            stack_scale_pct,
            type1_extra_events_x2,
            requests,
        } => Mix::RequestServer {
            app_work,
            request_bytes,
            response_chunks,
            events_x2,
            stack_scale_pct,
            type1_extra_events_x2,
            requests: requests * scale,
        },
    }
}

proptest! {
    /// Every catalog workload completes on all six configurations at
    /// any request-count multiplier up to 10× the calibrated default —
    /// no panics, no typed errors, and a strictly positive makespan.
    #[test]
    fn catalog_completes_on_every_kind_at_scale(scale in 1u32..11) {
        for workload in Workload::ALL {
            let mix = scaled(catalog_mix(workload), scale);
            for kind in HvKind::ALL {
                let mut sim = SimBuilder::new(kind)
                    .workload(workload)
                    .build()
                    .unwrap();
                let makespan =
                    workloads::run(sim.as_dyn_mut(), mix, VirqPolicy::Vcpu0)
                        .unwrap_or_else(|e| {
                            panic!("{workload} on {kind} at {scale}x: {e}")
                        });
                prop_assert!(
                    makespan.as_u64() > 0,
                    "{workload} on {kind} at {scale}x ran for zero cycles"
                );
            }
        }
    }
}

/// Large multi-sector requests read the full span and wrap around the
/// modelled device — the old data path read a fixed 64 bytes at an
/// unbounded offset and walked off the end of the disk.
#[test]
fn disk_io_reads_full_requests_and_wraps_offsets() {
    let mix = Mix::DiskIo {
        requests: 64,
        sectors: 2_048,
        device: DiskDevice::Ssd,
    };
    for kind in HvKind::ALL {
        let mut sim = SimBuilder::new(kind).build().unwrap();
        workloads::run(sim.as_dyn_mut(), mix, VirqPolicy::Vcpu0)
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

/// A request larger than the modelled device degrades to a typed
/// workload error instead of an out-of-range panic.
#[test]
fn disk_request_beyond_capacity_is_a_typed_error() {
    for sectors in [0, u32::MAX] {
        let mix = Mix::DiskIo {
            requests: 1,
            sectors,
            device: DiskDevice::Ssd,
        };
        let mut sim = SimBuilder::new(HvKind::KvmArm).build().unwrap();
        let err = workloads::run(sim.as_dyn_mut(), mix, VirqPolicy::Vcpu0)
            .expect_err("out-of-range request must not succeed");
        assert!(
            matches!(
                err,
                Error::Workload {
                    workload: "disk-io",
                    ..
                }
            ),
            "unexpected error for {sectors} sectors: {err}"
        );
    }
}
