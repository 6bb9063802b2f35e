//! The reference models every reply is checked against, and the tally of
//! attempted and failed operations with one repro line per failure.
//!
//! * [`TableModel`] holds the tables to unordered-batch semantics: a key
//!   written more than once in one insert batch may hold any of that
//!   batch's values. The first find that observes such a key pins the
//!   value it saw, so later finds must agree with it.
//! * [`ServiceOracle`] holds `kv-service` to per-key submission order and
//!   accounts for every admitted request as completed or lost; refused
//!   requests are failures too.

use std::collections::{HashMap, VecDeque};
use std::fmt::Display;

use kv_service::{ByteReply, Reply};

/// Repro lines kept in memory; failures beyond this are still counted.
const MAX_REPRO_LINES: usize = 10_000;

/// Attempted and failed operations of one run, with their repro lines.
#[derive(Debug)]
pub struct Tally {
    workload: &'static str,
    seed: u64,
    /// Operations issued to the program.
    pub attempted: u64,
    /// Operations whose reply was wrong, missing or refused.
    pub failed: u64,
    /// Replies the benchmark could not attribute to any operation it
    /// issued; a run with any is not correct.
    pub unexplained: u64,
    repro: Vec<String>,
}

impl Tally {
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Self {
            workload,
            seed,
            attempted: 0,
            failed: 0,
            unexplained: 0,
            repro: Vec::new(),
        }
    }

    /// Count `n` operations as issued.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Count `n` issued operations as failed and keep a repro line.
    pub fn fail(
        &mut self,
        n: u64,
        step: &str,
        key: impl Display,
        expected: impl Display,
        got: impl Display,
    ) {
        self.failed += n;
        if self.repro.len() < MAX_REPRO_LINES {
            self.repro.push(format!(
                "repro: seed={} workload={} step={step} key={key} expected={expected} got={got} ops={n}",
                self.seed, self.workload
            ));
        }
    }

    /// Record a reply that belongs to no issued operation.
    pub fn unexplained_reply(&mut self, step: &str, what: impl Display) {
        self.unexplained += 1;
        if self.repro.len() < MAX_REPRO_LINES {
            self.repro.push(format!(
                "unexplained: seed={} workload={} step={step} {what}",
                self.seed, self.workload
            ));
        }
    }

    /// The kept repro lines, in failure order.
    pub fn repro_lines(&self) -> &[String] {
        &self.repro
    }
}

/// What a table is allowed to hold for one key.
#[derive(Debug, Clone, PartialEq)]
enum Held {
    One(u32),
    /// Written more than once by one insert batch: any of these values.
    AnyOf(Vec<u32>),
}

/// Reference map for a batched table under unordered-batch semantics.
#[derive(Debug, Default)]
pub struct TableModel {
    map: HashMap<u32, Held>,
}

impl TableModel {
    /// Live keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Apply one insert batch; returns how many distinct keys were absent
    /// before it.
    pub fn insert_batch(&mut self, kvs: &[(u32, u32)]) -> u64 {
        let mut batch: HashMap<u32, Vec<u32>> = HashMap::with_capacity(kvs.len());
        for &(k, v) in kvs {
            batch.entry(k).or_default().push(v);
        }
        let mut fresh = 0;
        for (k, mut vals) in batch {
            vals.sort_unstable();
            vals.dedup();
            let held = if vals.len() == 1 {
                Held::One(vals[0])
            } else {
                Held::AnyOf(vals)
            };
            if self.map.insert(k, held).is_none() {
                fresh += 1;
            }
        }
        fresh
    }

    /// Check one find reply. A batch-ambiguous key is pinned to the first
    /// value a find observes. On a mismatch returns the expected reply.
    pub fn check_find(&mut self, key: u32, got: Option<u32>) -> Result<(), String> {
        match (self.map.get_mut(&key), got) {
            (None, None) => Ok(()),
            (Some(Held::One(v)), Some(g)) if *v == g => Ok(()),
            (Some(held @ Held::AnyOf(_)), Some(g)) => {
                let Held::AnyOf(vals) = &*held else {
                    unreachable!()
                };
                if vals.contains(&g) {
                    *held = Held::One(g);
                    Ok(())
                } else {
                    Err(format!("one-of{vals:?}"))
                }
            }
            (None, Some(_)) => Err("None".to_string()),
            (Some(Held::One(v)), _) => Err(format!("Some({v})")),
            (Some(Held::AnyOf(vals)), None) => Err(format!("one-of{vals:?}")),
        }
    }

    /// Apply one delete batch; returns how many distinct keys were present.
    pub fn delete_batch(&mut self, keys: &[u32]) -> u64 {
        keys.iter().filter(|k| self.map.remove(k).is_some()).count() as u64
    }
}

/// One request as submitted, in the terms the model needs. Byte keys and
/// values are named by the ids they were generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sub {
    Get(u32),
    Put(u32, u32),
    Delete(u32),
    BytesGet(u32),
    BytesPut(u32, u64),
    BytesDelete(u32),
}

impl Sub {
    fn key_label(&self) -> String {
        match *self {
            Sub::Get(k) | Sub::Put(k, _) | Sub::Delete(k) => k.to_string(),
            Sub::BytesGet(k) | Sub::BytesPut(k, _) | Sub::BytesDelete(k) => format!("bytes#{k}"),
        }
    }
}

/// The reply the model expects for one admitted request.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expect {
    Fixed(Reply),
    /// A byte-tier value, by value id.
    BytesValue(Option<u64>),
    BytesStored,
    BytesDeleted(bool),
}

/// A reply as the service returned it.
#[derive(Debug)]
pub enum Got<'a> {
    Fixed(Reply),
    Bytes(&'a ByteReply),
}

/// Ledger entry of one admitted request.
#[derive(Debug)]
enum Slot {
    Pending(Outstanding),
    Completed,
}

#[derive(Debug)]
struct Outstanding {
    sub: Sub,
    expect: Expect,
    submitted_step: u64,
    /// When the request was due, in ticks.
    due: f64,
}

/// Reference model of `kv-service`: one map per tier, applied in
/// submission order, plus the ledger of admitted requests.
pub struct ServiceOracle {
    fixed: HashMap<u32, u32>,
    bytes: HashMap<u32, u64>,
    /// Admitted requests from id `retired` on. Completed entries at the
    /// front are retired, so the ledger holds about what is in flight.
    ledger: VecDeque<Slot>,
    retired: u64,
    value_of: fn(u64) -> Vec<u8>,
    /// Admitted requests.
    pub admitted: u64,
    /// Admitted requests that completed (rightly or wrongly).
    pub completed: u64,
    /// Requests refused at admission.
    pub refused: u64,
    /// Admitted requests that never completed.
    pub lost: u64,
}

impl ServiceOracle {
    /// `value_of` turns a byte-tier value id into the bytes that were put.
    pub fn new(value_of: fn(u64) -> Vec<u8>) -> Self {
        Self {
            fixed: HashMap::new(),
            bytes: HashMap::new(),
            ledger: VecDeque::new(),
            retired: 0,
            value_of,
            admitted: 0,
            completed: 0,
            refused: 0,
            lost: 0,
        }
    }

    /// Record one submission, due at `due` ticks and submitted at `step`:
    /// `Some(id)` if admitted, `None` if refused. Admitted requests are
    /// applied to the model in submission order.
    pub fn submit(&mut self, sub: Sub, id: Option<u64>, step: u64, due: f64, tally: &mut Tally) {
        tally.attempt(1);
        let Some(id) = id else {
            self.refused += 1;
            tally.fail(
                1,
                &format!("tick {step}"),
                sub.key_label(),
                "admitted",
                "refused",
            );
            return;
        };
        let expect = match sub {
            Sub::Get(k) => Expect::Fixed(Reply::Value(self.fixed.get(&k).copied())),
            Sub::Put(k, v) => {
                self.fixed.insert(k, v);
                Expect::Fixed(Reply::Stored)
            }
            Sub::Delete(k) => {
                self.fixed.remove(&k);
                Expect::Fixed(Reply::Deleted)
            }
            Sub::BytesGet(k) => Expect::BytesValue(self.bytes.get(&k).copied()),
            Sub::BytesPut(k, vid) => {
                self.bytes.insert(k, vid);
                Expect::BytesStored
            }
            Sub::BytesDelete(k) => Expect::BytesDeleted(self.bytes.remove(&k).is_some()),
        };
        assert_eq!(
            id,
            self.retired + self.ledger.len() as u64,
            "kv-service assigns request ids in admission order"
        );
        self.ledger.push_back(Slot::Pending(Outstanding {
            sub,
            expect,
            submitted_step: step,
            due,
        }));
        self.admitted += 1;
    }

    /// Check one completion against the model and return when the request
    /// was due. Every completion of a request beyond its first is a
    /// failure; a completion of an id that was never admitted is
    /// unexplained.
    pub fn complete(&mut self, id: u64, got: Got<'_>, step: u64, tally: &mut Tally) -> Option<f64> {
        let step_label = format!("tick {step}");
        let slot = match id.checked_sub(self.retired) {
            Some(i) => self.ledger.get_mut(i as usize),
            None => Some(&mut Slot::Completed),
        };
        let Some(slot) = slot else {
            tally.unexplained_reply(&step_label, format!("completion of unknown id {id}"));
            return None;
        };
        let Slot::Pending(out) = std::mem::replace(slot, Slot::Completed) else {
            tally.fail(
                1,
                &step_label,
                format!("id#{id}"),
                "one completion",
                "another completion",
            );
            return None;
        };
        while matches!(self.ledger.front(), Some(Slot::Completed)) {
            self.ledger.pop_front();
            self.retired += 1;
        }
        self.completed += 1;
        let ok = match (&out.expect, &got) {
            (Expect::Fixed(e), Got::Fixed(g)) => e == g,
            (Expect::BytesValue(None), Got::Bytes(ByteReply::Value(None))) => true,
            (Expect::BytesValue(Some(vid)), Got::Bytes(ByteReply::Value(Some(g)))) => {
                (self.value_of)(*vid) == *g
            }
            (Expect::BytesStored, Got::Bytes(ByteReply::Stored)) => true,
            (Expect::BytesDeleted(e), Got::Bytes(ByteReply::Deleted(g))) => e == g,
            _ => false,
        };
        if !ok {
            let expected = match &out.expect {
                Expect::BytesValue(Some(vid)) => {
                    format!(
                        "Value({:?})",
                        String::from_utf8_lossy(&(self.value_of)(*vid))
                    )
                }
                e => format!("{e:?}"),
            };
            let got = match got {
                Got::Bytes(ByteReply::Value(Some(g))) => {
                    format!("Value({:?})", String::from_utf8_lossy(g))
                }
                g => format!("{g:?}"),
            };
            tally.fail(
                1,
                &format!("tick {step} (submitted tick {})", out.submitted_step),
                out.sub.key_label(),
                expected,
                got,
            );
        }
        Some(out.due)
    }

    /// Close the ledger: every admitted request still outstanding is lost.
    pub fn finish(&mut self, step: u64, tally: &mut Tally) {
        for slot in self.ledger.drain(..) {
            let Slot::Pending(out) = slot else {
                continue;
            };
            self.lost += 1;
            tally.fail(
                1,
                &format!("end tick {step} (submitted tick {})", out.submitted_step),
                out.sub.key_label(),
                "a completion",
                "lost",
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value_of(vid: u64) -> Vec<u8> {
        vid.to_le_bytes().to_vec()
    }

    #[test]
    fn table_model_counts_an_injected_wrong_reply() {
        let mut tally = Tally::new("test", 7);
        let mut model = TableModel::default();
        assert_eq!(model.insert_batch(&[(1, 10), (2, 20)]), 2);
        for (key, got) in [(1, Some(10)), (2, Some(21)), (3, None)] {
            tally.attempt(1);
            if let Err(expected) = model.check_find(key, got) {
                tally.fail(1, "batch 0", key, expected, format!("{got:?}"));
            }
        }
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        let line = &tally.repro_lines()[0];
        assert!(line.contains("seed=7") && line.contains("key=2"), "{line}");
        assert!(line.contains("expected=Some(20)") && line.contains("got=Some(21)"));
    }

    #[test]
    fn duplicate_keys_in_one_batch_may_hold_any_value_then_pin() {
        let mut model = TableModel::default();
        assert_eq!(model.insert_batch(&[(5, 1), (5, 2), (6, 3)]), 2);
        assert!(model.check_find(5, Some(3)).is_err());
        assert!(model.check_find(5, Some(2)).is_ok());
        // The batch chose 2; a later find may not see 1.
        assert!(model.check_find(5, Some(1)).is_err());
        assert!(model.check_find(5, None).is_err());
        assert_eq!(model.delete_batch(&[5, 5, 9]), 1);
        assert!(model.check_find(5, None).is_ok());
        assert_eq!(model.len(), 1);
    }

    #[test]
    fn service_oracle_follows_submission_order() {
        let mut tally = Tally::new("test", 1);
        let mut o = ServiceOracle::new(value_of);
        o.submit(Sub::Put(4, 40), Some(0), 1, 0.5, &mut tally);
        o.submit(Sub::Get(4), Some(1), 1, 0.5, &mut tally);
        o.submit(Sub::Delete(4), Some(2), 1, 0.5, &mut tally);
        o.submit(Sub::Get(4), Some(3), 1, 0.5, &mut tally);
        o.submit(Sub::BytesPut(9, 77), Some(4), 1, 0.5, &mut tally);
        o.submit(Sub::BytesGet(9), Some(5), 1, 0.5, &mut tally);
        o.submit(Sub::BytesDelete(9), Some(6), 1, 0.5, &mut tally);
        assert_eq!(
            o.complete(0, Got::Fixed(Reply::Stored), 2, &mut tally),
            Some(0.5)
        );
        o.complete(1, Got::Fixed(Reply::Value(Some(40))), 2, &mut tally);
        o.complete(2, Got::Fixed(Reply::Deleted), 2, &mut tally);
        o.complete(3, Got::Fixed(Reply::Value(None)), 2, &mut tally);
        o.complete(4, Got::Bytes(&ByteReply::Stored), 2, &mut tally);
        let v = ByteReply::Value(Some(value_of(77)));
        o.complete(5, Got::Bytes(&v), 2, &mut tally);
        o.complete(6, Got::Bytes(&ByteReply::Deleted(true)), 2, &mut tally);
        assert!(o.ledger.is_empty(), "completed requests are retired");
        o.finish(3, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (7, 0));
        assert_eq!((o.admitted, o.completed, o.lost, o.refused), (7, 7, 0, 0));
    }

    #[test]
    fn service_oracle_counts_an_injected_wrong_reply() {
        let mut tally = Tally::new("test", 1);
        let mut o = ServiceOracle::new(value_of);
        o.submit(Sub::Put(4, 40), Some(0), 1, 0.5, &mut tally);
        o.submit(Sub::Get(4), Some(1), 1, 0.5, &mut tally);
        o.submit(Sub::BytesPut(9, 77), Some(2), 1, 0.5, &mut tally);
        o.submit(Sub::BytesGet(9), Some(3), 1, 0.5, &mut tally);
        o.complete(0, Got::Fixed(Reply::Stored), 2, &mut tally);
        o.complete(1, Got::Fixed(Reply::Value(Some(41))), 2, &mut tally);
        o.complete(2, Got::Bytes(&ByteReply::Stored), 2, &mut tally);
        let stale = ByteReply::Value(Some(value_of(76)));
        o.complete(3, Got::Bytes(&stale), 2, &mut tally);
        o.finish(3, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (4, 2));
        assert_eq!(o.lost, 0);
        assert!(tally.repro_lines()[0].contains("expected=Fixed(Value(Some(40)))"));
    }

    #[test]
    fn service_oracle_counts_an_injected_lost_request() {
        let mut tally = Tally::new("test", 1);
        let mut o = ServiceOracle::new(value_of);
        o.submit(Sub::Put(4, 40), Some(0), 1, 0.5, &mut tally);
        o.submit(Sub::Get(4), Some(1), 1, 0.5, &mut tally);
        o.complete(0, Got::Fixed(Reply::Stored), 2, &mut tally);
        o.finish(5, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!((o.admitted, o.completed, o.lost), (2, 1, 1));
        assert!(tally.repro_lines()[0].contains("got=lost"));
    }

    #[test]
    fn service_oracle_counts_refusals_and_duplicate_completions() {
        let mut tally = Tally::new("test", 1);
        let mut o = ServiceOracle::new(value_of);
        o.submit(Sub::Get(1), None, 1, 0.5, &mut tally);
        o.submit(Sub::Get(2), Some(0), 1, 0.5, &mut tally);
        o.complete(0, Got::Fixed(Reply::Value(None)), 2, &mut tally);
        o.complete(0, Got::Fixed(Reply::Value(None)), 2, &mut tally);
        o.complete(9, Got::Fixed(Reply::Value(None)), 2, &mut tally);
        o.finish(3, &mut tally);
        assert_eq!(
            (tally.attempted, tally.failed, tally.unexplained),
            (2, 2, 1)
        );
        assert_eq!(o.refused, 1);
    }
}
