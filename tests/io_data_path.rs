//! End-to-end data integrity through the two paravirtual I/O stacks,
//! built from the public substrate APIs the hypervisor models use.

use hvx::mem::{Access, DomId, GrantTable, Ipa, Pa, PhysMemory, S2Perms, Stage2Tables, PAGE_SIZE};
use hvx::vio::{
    Descriptor, EventChannels, NetBack, NetFront, Packet, VhostNet, VioError, Virtqueue,
};

const DOMU: DomId = DomId(1);

fn guest_setup() -> (PhysMemory, Stage2Tables) {
    let mut s2 = Stage2Tables::new();
    s2.map_range(Ipa::new(0x8000_0000), Pa::new(0x10_0000), 64, S2Perms::RW)
        .unwrap();
    (PhysMemory::new(16 << 20), s2)
}

#[test]
fn virtio_echo_server_round_trip() {
    // A request packet travels wire -> vhost -> guest buffer; the guest
    // builds a response in another buffer; vhost transmits it — all with
    // real bytes and zero copies inside the host.
    let (mut mem, s2) = guest_setup();
    let mut vhost = VhostNet::new();
    let mut rx = Virtqueue::new(64).unwrap();
    let mut tx = Virtqueue::new(64).unwrap();
    rx.add_chain(&[Descriptor {
        addr: Ipa::new(0x8000_0000),
        len: PAGE_SIZE as u32,
        device_writes: true,
    }])
    .unwrap();

    let request = Packet::new(1, &b"GET /index.html"[..]);
    vhost.deliver_rx(&mut rx, &s2, &mut mem, &request).unwrap();

    // Guest reads the request out of its own memory...
    let (head, len) = rx.take_used().unwrap().unwrap();
    assert_eq!((head, len as usize), (0, request.len()));
    let pa = s2
        .translate(Ipa::new(0x8000_0000), Access::Read)
        .unwrap()
        .pa;
    let mut got = vec![0u8; len as usize];
    mem.read(pa, &mut got).unwrap();
    assert_eq!(&got, b"GET /index.html");

    // ...and responds from a different buffer.
    let resp_ipa = Ipa::new(0x8000_0000 + PAGE_SIZE);
    let resp_pa = s2.translate(resp_ipa, Access::Write).unwrap().pa;
    mem.write(resp_pa, b"200 OK payload").unwrap();
    tx.add_chain(&[Descriptor {
        addr: resp_ipa,
        len: 14,
        device_writes: false,
    }])
    .unwrap();
    let sent = vhost.process_tx(&mut tx, &s2, &mut mem).unwrap();
    assert_eq!(&sent[0].data[..], b"200 OK payload");
    assert_eq!(vhost.rx_bytes(), 15);
    assert_eq!(vhost.tx_bytes(), 14);
}

#[test]
fn xen_pv_echo_round_trip_with_events() {
    // The same echo, through grants, rings, and event channels.
    let (mut mem, s2) = guest_setup();
    let mut grants = GrantTable::new(32);
    let mut evtchn = EventChannels::new();
    let port = evtchn.bind_interdomain(DOMU, DomId::DOM0).unwrap();
    let mut ring = hvx::vio::XenNetRing::new();
    let mut front = NetFront::new(
        DOMU,
        (0..4)
            .map(|i| Ipa::new(0x8000_0000 + i * PAGE_SIZE))
            .collect(),
    );
    let mut back = NetBack::new(Pa::new(0x80_0000), 8);

    // RX: netback fills a granted frame, notifies DomU.
    front
        .post_rx(
            &mut ring,
            &mut grants,
            &s2,
            Ipa::new(0x8000_0000 + 8 * PAGE_SIZE),
        )
        .unwrap();
    back.deliver_rx(
        &mut ring,
        &mut grants,
        &mut mem,
        &Packet::new(1, &b"ping"[..]),
    )
    .unwrap();
    assert_eq!(evtchn.notify(port, DomId::DOM0).unwrap(), DOMU);
    assert!(evtchn.has_pending(DOMU));
    let rxed = front
        .reap_rx(&mut ring, &mut grants, &s2, &mut mem)
        .unwrap();
    assert_eq!(rxed, vec![b"ping".to_vec()]);
    evtchn.clear_pending(DOMU, port);

    // TX: DomU responds; netback copies it out and "transmits".
    front
        .post_tx(&mut ring, &mut grants, &s2, &mut mem, b"pong")
        .unwrap();
    assert_eq!(evtchn.notify(port, DOMU).unwrap(), DomId::DOM0);
    let sent = back.process_tx(&mut ring, &mut grants, &mut mem).unwrap();
    assert_eq!(&sent[0].data[..], b"pong");
    front.reap_tx(&mut ring, &mut grants).unwrap();

    // Isolation invariant: every grant retired, exactly 2 copies paid.
    assert_eq!(grants.live_entries(), 0);
    assert_eq!(grants.copy_count(), 2);
}

#[test]
fn vhost_respects_stage2_permissions() {
    // The host backend cannot write through a read-only Stage-2 mapping
    // — the isolation the hardware enforces with EPT/Stage-2 faults.
    let mut mem = PhysMemory::new(16 << 20);
    let mut s2 = Stage2Tables::new();
    s2.map_page(Ipa::new(0x8000_0000), Pa::new(0x10_0000), S2Perms::RO)
        .unwrap();
    let mut vhost = VhostNet::new();
    let mut rx = Virtqueue::new(8).unwrap();
    rx.add_chain(&[Descriptor {
        addr: Ipa::new(0x8000_0000),
        len: 64,
        device_writes: true,
    }])
    .unwrap();
    let err = vhost
        .deliver_rx(&mut rx, &s2, &mut mem, &Packet::new(0, &b"x"[..]))
        .unwrap_err();
    assert!(matches!(err, VioError::Translation(_)));
}

#[test]
fn grant_copy_cannot_reach_unshared_frames() {
    // Dom0 can only touch what DomU granted — a second frame stays
    // untouched even when adjacent.
    let mut mem = PhysMemory::new(16 << 20);
    let mut grants = GrantTable::new(8);
    mem.write(Pa::new(0x11_0000), b"SECRET").unwrap();
    let gref = grants
        .grant_access(DomId::DOM0, Pa::new(0x10_0000), false)
        .unwrap();
    // Copy into the granted frame is fine.
    mem.write(Pa::new(0x20_0000), b"public").unwrap();
    grants
        .grant_copy(&mut mem, gref, DomId::DOM0, 0, Pa::new(0x20_0000), 6, true)
        .unwrap();
    // The neighbouring frame is unreachable through this grant: offsets
    // are frame-relative and the grant is one frame.
    let mut check = [0u8; 6];
    mem.read(Pa::new(0x11_0000), &mut check).unwrap();
    assert_eq!(&check, b"SECRET");
}

#[test]
fn full_hypervisor_paths_move_real_bytes() {
    // The assembled models carry actual payloads: transmit on each ARM
    // hypervisor results in NIC-visible packets with accounted bytes.
    use hvx::core::{Hypervisor, KvmArm, XenArm};
    let mut kvm = KvmArm::new();
    kvm.machine_mut().enable_event_tracing(None);
    for len in [1usize, 64, 1000, 1400] {
        kvm.transmit(0, len);
    }
    let mut xen = XenArm::new();
    xen.machine_mut().enable_event_tracing(None);
    for len in [1usize, 64, 1000, 1400] {
        xen.transmit(0, len);
        xen.receive(len, hvx::engine::Cycles::ZERO);
    }
    // Xen paid one grant copy per packet per direction; KVM paid none.
    // (Copy accounting is observable through the event tracers.)
    let xen_copies = xen
        .machine()
        .event_tracer()
        .unwrap()
        .labels()
        .into_iter()
        .filter(|l| *l == "xen:grant-copy")
        .count();
    assert_eq!(xen_copies, 8, "one copy per TX + one per RX");
    let kvm_copies = kvm
        .machine()
        .event_tracer()
        .unwrap()
        .labels()
        .into_iter()
        .filter(|l| l.contains("grant"))
        .count();
    assert_eq!(kvm_copies, 0, "virtio/vhost path is zero copy");
}
