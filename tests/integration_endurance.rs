//! Endurance: a seeded random mixture of pageouts, pageins, frees,
//! flushes, migrations, crashes and restarts, with a reference model
//! checked at every read and a full sweep at the end. This is the
//! closest thing to the paper's "in everyday use" claim that a test
//! suite can make.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmp::prelude::*;

const PAGES: u64 = 96;
const OPS: usize = 2_500;

#[test]
fn parity_logging_survives_a_chaotic_week() {
    let cluster = LocalCluster::spawn(5, 16 * 4096).expect("cluster");
    let pager = cluster
        .pager(
            PagerConfig::new(Policy::ParityLogging)
                .with_servers(4)
                .with_shard_count(1),
        )
        .expect("pager");
    let mut rng = StdRng::seed_from_u64(0x19960122);
    let mut reference: std::collections::HashMap<PageId, u64> = std::collections::HashMap::new();
    let mut crashed: Option<u32> = None;
    let mut version: u64 = 0;
    for step in 0..OPS {
        let op = rng.gen_range(0..100);
        let id = PageId(rng.gen_range(0..PAGES));
        match op {
            // 55 %: pageout a fresh version.
            0..=54 => {
                version += 1;
                pager
                    .page_out(id, &Page::deterministic(version))
                    .unwrap_or_else(|e| panic!("step {step}: pageout {id}: {e}"));
                reference.insert(id, version);
            }
            // 25 %: pagein and verify against the reference.
            55..=79 => match (pager.page_in(id), reference.get(&id)) {
                (Ok(page), Some(&v)) => {
                    assert_eq!(page, Page::deterministic(v), "step {step}: {id}");
                }
                (Err(RmpError::PageNotFound(_)), None) => {}
                (got, expect) => panic!(
                    "step {step}: {id} diverged: got={:?} expect={:?}",
                    got.map(|_| "page"),
                    expect
                ),
            },
            // 8 %: free.
            80..=87 => {
                pager
                    .free(id)
                    .unwrap_or_else(|e| panic!("step {step}: free {id}: {e}"));
                reference.remove(&id);
            }
            // 4 %: flush (seal the pending parity group).
            88..=91 => pager
                .flush()
                .unwrap_or_else(|e| panic!("step {step}: flush: {e}")),
            // 4 %: crash a random data server (at most one down at once).
            92..=95 => {
                if crashed.is_none() {
                    let victim = rng.gen_range(0..4u32);
                    cluster.handles()[victim as usize].crash();
                    crashed = Some(victim);
                    pager
                        .recover_from_crash(ServerId(victim))
                        .unwrap_or_else(|e| panic!("step {step}: recovery of srv{victim}: {e}"));
                }
            }
            // 4 %: the crashed workstation reboots and rejoins.
            _ => {
                if let Some(victim) = crashed.take() {
                    cluster.handles()[victim as usize].restart();
                    pager
                        .reconnect(ServerId(victim))
                        .unwrap_or_else(|e| panic!("step {step}: rejoin srv{victim}: {e}"));
                }
            }
        }
    }
    // Final sweep: every live page intact, every freed page gone.
    pager.flush().expect("final flush");
    for id in (0..PAGES).map(PageId) {
        match reference.get(&id) {
            Some(&v) => {
                let page = pager
                    .page_in(id)
                    .unwrap_or_else(|e| panic!("final sweep {id}: {e}"));
                assert_eq!(page, Page::deterministic(v), "final sweep {id}");
            }
            None => {
                assert!(
                    matches!(pager.page_in(id), Err(RmpError::PageNotFound(_))),
                    "freed page {id} must stay gone"
                );
            }
        }
    }
    // The log stayed bounded: reclamation kept up with the churn.
    let stats = pager.stats();
    assert!(stats.groups_reclaimed > 0, "churn reclaimed groups");
}

#[test]
fn mirroring_survives_the_same_chaos() {
    let cluster = LocalCluster::spawn(3, 16 * 4096).expect("cluster");
    let pager = cluster
        .pager(
            PagerConfig::new(Policy::Mirroring)
                .with_servers(3)
                .with_shard_count(1),
        )
        .expect("pager");
    let mut rng = StdRng::seed_from_u64(0xD15C);
    let mut reference: std::collections::HashMap<PageId, u64> = std::collections::HashMap::new();
    let mut crashed: Option<u32> = None;
    let mut version = 0u64;
    for step in 0..1_500usize {
        let id = PageId(rng.gen_range(0..64));
        match rng.gen_range(0..10) {
            0..=5 => {
                version += 1;
                pager
                    .page_out(id, &Page::deterministic(version))
                    .unwrap_or_else(|e| panic!("step {step}: {e}"));
                reference.insert(id, version);
            }
            6..=7 => {
                if let Some(&v) = reference.get(&id) {
                    let page = pager
                        .page_in(id)
                        .unwrap_or_else(|e| panic!("step {step}: {e}"));
                    assert_eq!(page, Page::deterministic(v), "step {step}");
                }
            }
            8 => {
                if crashed.is_none() {
                    let victim = rng.gen_range(0..3u32);
                    cluster.handles()[victim as usize].crash();
                    crashed = Some(victim);
                    pager
                        .recover_from_crash(ServerId(victim))
                        .unwrap_or_else(|e| panic!("step {step}: {e}"));
                }
            }
            _ => {
                if let Some(victim) = crashed.take() {
                    cluster.handles()[victim as usize].restart();
                    pager
                        .reconnect(ServerId(victim))
                        .unwrap_or_else(|e| panic!("step {step}: {e}"));
                }
            }
        }
    }
    for (&id, &v) in &reference {
        assert_eq!(
            pager
                .page_in(id)
                .unwrap_or_else(|e| panic!("sweep {id}: {e}")),
            Page::deterministic(v)
        );
    }
}
