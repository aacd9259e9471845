//! The leaf-lock rule at the daemon's blocking points: each call below
//! blocks (on a socket, on the engine pool's free list or on the
//! admission gate) and panics when made under a held
//! [`Leaf`](comm_graph::sync::Leaf) guard — armed under
//! `cfg(any(debug_assertions, feature = "verify"))`.

use crate::admission::{Admission, AdmissionConfig, AdmissionGate};
use crate::protocol::{read_frame, write_frame};
use comm_graph::sync::Leaf;
use comm_graph::EnginePool;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

fn gate() -> AdmissionGate {
    AdmissionGate::new(AdmissionConfig::default(), Arc::new(AtomicBool::new(false)))
}

#[test]
#[should_panic(expected = "a Leaf guard is held here")]
fn write_frame_under_a_guard_panics() {
    let leaf = Leaf::new(());
    let _g = leaf.lock();
    let _ = write_frame(&mut Vec::new(), b"reply");
}

#[test]
#[should_panic(expected = "a Leaf guard is held here")]
fn read_frame_under_a_guard_panics() {
    let mut wire = Vec::new();
    write_frame(&mut wire, b"request").unwrap();
    let leaf = Leaf::new(());
    let _g = leaf.lock();
    let _ = read_frame(&mut wire.as_slice());
}

#[test]
#[should_panic(expected = "a Leaf guard is held here")]
fn pool_checkout_under_a_guard_panics() {
    let pool = EnginePool::new();
    let leaf = Leaf::new(());
    let _g = leaf.lock();
    let _engine = pool.acquire(8);
}

#[test]
#[should_panic(expected = "a Leaf guard is held here")]
fn returning_an_engine_under_a_guard_panics() {
    let pool = EnginePool::new();
    let engine = pool.acquire(8);
    let leaf = Leaf::new(());
    let _g = leaf.lock();
    drop(engine);
}

#[test]
#[should_panic(expected = "a Leaf guard is held here")]
fn admission_under_a_guard_panics() {
    let gate = gate();
    let leaf = Leaf::new(());
    let _g = leaf.lock();
    let _ = gate.admit();
}

#[test]
#[should_panic(expected = "a Leaf guard is held here")]
fn releasing_a_permit_under_a_guard_panics() {
    let gate = gate();
    let Admission::Admitted(permit) = gate.admit() else {
        panic!("an idle gate admits");
    };
    let leaf = Leaf::new(());
    let _g = leaf.lock();
    drop(permit);
}
