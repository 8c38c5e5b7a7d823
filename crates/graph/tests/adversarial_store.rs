//! Adversarial structured inputs for the CSR decoder: payloads with
//! valid framing and checksums but broken *graph* invariants must come
//! back as typed `Malformed` errors from the `O(n + m)` validation
//! sweep — never a panic, never a structurally bogus graph that
//! downstream kernels would walk off the end of.

use casbn_graph::store::csr_from_payload;
use casbn_graph::{Csr, InvariantViolation};
use casbn_store::{Enc, StoreError};

#[test]
fn try_from_parts_rejects_each_broken_invariant() {
    // a valid triangle, for reference
    assert!(Csr::try_from_parts(vec![0, 2, 4, 6], vec![1, 2, 0, 2, 0, 1]).is_ok());
    let cases: &[(&str, &[u32], &[u32])] = &[
        ("offset array must start at 0", &[1, 1], &[0]),
        (
            "offset array does not cover the adjacency array",
            &[0, 1],
            &[],
        ),
        ("offsets must be non-decreasing", &[0, 2, 1, 3], &[1, 2, 0]),
        (
            "adjacency lists must be sorted and duplicate-free",
            &[0, 2, 4],
            &[1, 1, 0, 0],
        ),
        ("neighbour id out of range", &[0, 1, 2], &[5, 0]),
        ("self-loop in adjacency list", &[0, 1, 2], &[0, 0]),
        ("adjacency lists not symmetric", &[0, 1, 1, 2], &[1, 1]),
    ];
    for (want, xadj, adjncy) in cases {
        let got = Csr::try_from_parts(xadj.to_vec(), adjncy.to_vec()).unwrap_err();
        assert_eq!(got, InvariantViolation(want), "case {want:?}");
    }
}

#[test]
fn invariant_violation_is_a_real_error_type() {
    let err = Csr::try_from_parts(vec![0, 1, 2], vec![0, 0]).unwrap_err();
    // Display carries the context, and the type boxes as a std error —
    // the unified error plumbing every parse surface shares
    assert_eq!(
        err.to_string(),
        "graph invariant violated: self-loop in adjacency list"
    );
    let boxed: Box<dyn std::error::Error> = Box::new(err);
    assert!(boxed.to_string().contains("self-loop"));
}

#[test]
fn csr_payload_with_asymmetric_adjacency_is_malformed() {
    let mut e = Enc::new();
    e.u64(3); // n
    e.u64(1); // m
    e.u32s(&[0, 1, 1, 2]); // v0 -> v1 claimed, v2 -> v1 claimed
    e.u32s(&[1, 1]); // but v1's list is empty: asymmetric
    match csr_from_payload(&e.into_payload()) {
        Err(StoreError::Malformed(msg)) => {
            assert!(msg.contains("not symmetric"), "{msg}");
            assert!(msg.contains("graph invariant violated"), "{msg}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }
}
