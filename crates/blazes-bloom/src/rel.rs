//! Flat relations: the storage behind every collection of the Bloom
//! engine.
//!
//! A [`Rel`] keeps its rows back to back in one `Vec<Value>` — row `i`
//! is `cells[i·arity .. (i+1)·arity]` — so deriving, storing and
//! discarding a row allocates nothing of its own. An open-addressing
//! table of `u32` row numbers (linear probing, at most half full, each
//! row's hash kept beside it) makes the rows a set, and each index maps a
//! join key to the numbers of the rows that carry it.
//!
//! Rows are numbered in insertion order, and only a removal changes a
//! number: it moves the last row into the hole and re-points that row in
//! the table and in every live index. So a relation that has only grown
//! since some moment holds what it gained since then as one row range —
//! the engine's tick and iteration deltas — and undoing that growth is a
//! [`Rel::truncate`].

use blazes_dataflow::value::{Tuple, Value};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Range;

/// The engine's one hasher, for rows and index keys alike: no seed, so
/// nothing the engine does depends on the run.
///
/// Not collision-hardened: whoever knows the hasher can pick tuples that
/// share bucket bits and drive joins and inserts toward quadratic time.
/// Meant for trusted and benchmark input only.
type FixedHash = BuildHasherDefault<MulHasher>;

/// A small multiplicative hasher (rustc's add-multiply "Fx" step with a
/// final rotation that brings the well-mixed high bits down to where a
/// hash table takes its bucket index): a tuple of integers hashes in a
/// handful of instructions. The std `DefaultHasher` (SipHash) in its
/// place costs the `bloom-tc` benchmark 28 % of its throughput (median of
/// 10 runs on a 2-core VM).
#[derive(Debug, Default, Clone, Copy)]
struct MulHasher(u64);

impl MulHasher {
    fn mix(&mut self, word: u64) {
        self.0 = self
            .0
            .wrapping_add(word)
            .wrapping_mul(0xf135_7aea_2e62_a9c5);
    }
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(last));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// The hash a row is filed under.
fn hash_row(row: &[Value]) -> u64 {
    let mut h = MulHasher::default();
    for v in row {
        v.hash(&mut h);
    }
    h.finish()
}

/// An empty slot of the row table.
const EMPTY: u32 = u32::MAX;

/// A set of rows of one arity, with its indexes.
#[derive(Debug, Clone)]
pub(crate) struct Rel {
    arity: usize,
    /// Number of rows (kept apart from `cells` so arity 0 works too).
    len: usize,
    cells: Vec<Value>,
    /// Per row: its [`hash_row`].
    hashes: Vec<u64>,
    /// Row numbers, each under linear probing from its hash's low bits; a
    /// power of two long, at most half full, empty until the first row.
    slots: Vec<u32>,
    indexes: Vec<Index>,
}

/// A hash index over some key columns of a relation.
#[derive(Debug, Clone)]
struct Index {
    cols: Vec<usize>,
    /// Join key → numbers of the rows carrying it; `None` until built.
    /// Once built, every insert, removal and truncation maintains it.
    map: Option<HashMap<Vec<Value>, Vec<u32>, FixedHash>>,
}

impl Index {
    fn add(&mut self, row: &[Value], r: u32) {
        let Some(map) = &mut self.map else { return };
        let key = key_of(row, &self.cols);
        match map.get_mut(key.as_ref()) {
            Some(bucket) => bucket.push(r),
            None => {
                map.insert(key.into_owned(), vec![r]);
            }
        }
    }

    /// Take row `r` (which carries `row`) out of its bucket.
    fn drop_row(&mut self, row: &[Value], r: u32) {
        let Some(map) = &mut self.map else { return };
        let key = key_of(row, &self.cols);
        let bucket = map.get_mut(key.as_ref()).expect("indexed row has a bucket");
        let at = bucket
            .iter()
            .rposition(|&x| x == r)
            .expect("row in its bucket");
        bucket.swap_remove(at);
        if bucket.is_empty() {
            map.remove(key.as_ref());
        }
    }

    /// Row `from` (which carries `row`) is now row `to`.
    fn renumber(&mut self, row: &[Value], from: u32, to: u32) {
        let Some(map) = &mut self.map else { return };
        let bucket = map
            .get_mut(key_of(row, &self.cols).as_ref())
            .expect("indexed row has a bucket");
        let at = bucket
            .iter()
            .rposition(|&x| x == from)
            .expect("row in its bucket");
        bucket[at] = to;
    }
}

/// `row`'s values at `cols`, borrowed in place when the columns are
/// contiguous and ascending (every one-column key, for one), so probing
/// with them allocates nothing.
pub(crate) fn key_of<'a>(row: &'a [Value], cols: &[usize]) -> Cow<'a, [Value]> {
    match cols.first() {
        Some(&start) if cols.iter().enumerate().any(|(k, &i)| i != start + k) => {
            Cow::Owned(cols.iter().map(|&i| row[i].clone()).collect())
        }
        Some(&start) => Cow::Borrowed(&row[start..start + cols.len()]),
        None => Cow::Borrowed(&[]),
    }
}

impl Rel {
    /// An empty relation of rows of `arity` values; allocates nothing.
    pub(crate) fn new(arity: usize) -> Self {
        Rel {
            arity,
            len: 0,
            cells: Vec::new(),
            hashes: Vec::new(),
            slots: Vec::new(),
            indexes: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Row number `r`.
    pub(crate) fn row(&self, r: usize) -> &[Value] {
        &self.cells[r * self.arity..(r + 1) * self.arity]
    }

    /// The rows numbered `range`, in order.
    pub(crate) fn rows_in(&self, range: Range<usize>) -> impl Iterator<Item = &[Value]> + '_ {
        range.map(|r| self.row(r))
    }

    /// Every row, in row-number order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.rows_in(0..self.len)
    }

    /// The table slot holding a row equal to `row` (`Ok`), or the empty
    /// slot where it would go (`Err`). The table must not be empty.
    fn lookup(&self, row: &[Value], hash: u64) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut s = hash as usize & mask;
        loop {
            match self.slots[s] {
                EMPTY => return Err(s),
                r if self.hashes[r as usize] == hash && self.row(r as usize) == row => {
                    return Ok(s)
                }
                _ => s = (s + 1) & mask,
            }
        }
    }

    /// The table slot of row `r`.
    fn slot_of(&self, r: usize) -> usize {
        let mask = self.slots.len() - 1;
        let mut s = self.hashes[r] as usize & mask;
        while self.slots[s] != r as u32 {
            s = (s + 1) & mask;
        }
        s
    }

    /// Room in the table for one more row.
    fn reserve_one(&mut self) {
        if (self.len + 1) * 2 <= self.slots.len() {
            return;
        }
        assert!(self.len < EMPTY as usize, "more rows than row numbers");
        let size = (self.slots.len() * 2).max(8);
        self.slots = vec![EMPTY; size];
        let mask = size - 1;
        for (r, &h) in self.hashes.iter().enumerate() {
            let mut s = h as usize & mask;
            while self.slots[s] != EMPTY {
                s = (s + 1) & mask;
            }
            self.slots[s] = r as u32;
        }
    }

    /// Make the cells past the last row a row: file it in `slot` and in
    /// every live index.
    fn commit(&mut self, slot: usize, hash: u64) {
        let r = self.len;
        self.slots[slot] = r as u32;
        self.hashes.push(hash);
        self.len += 1;
        let row = &self.cells[r * self.arity..];
        for idx in &mut self.indexes {
            idx.add(row, r as u32);
        }
    }

    /// Append a row that `fill` writes in place, unless an equal row is
    /// already here; `true` if it was appended.
    pub(crate) fn push_with(&mut self, fill: impl FnOnce(&mut Vec<Value>)) -> bool {
        let start = self.cells.len();
        fill(&mut self.cells);
        assert_eq!(
            self.cells.len() - start,
            self.arity,
            "row of the wrong arity"
        );
        let hash = hash_row(&self.cells[start..]);
        self.reserve_one();
        match self.lookup(&self.cells[start..], hash) {
            Ok(_) => {
                self.cells.truncate(start);
                false
            }
            Err(slot) => {
                self.commit(slot, hash);
                true
            }
        }
    }

    /// Append a copy of `row` unless it is already here; `true` if it was
    /// appended.
    pub(crate) fn insert(&mut self, row: &[Value]) -> bool {
        self.insert_hashed(row, hash_row(row))
    }

    fn insert_hashed(&mut self, row: &[Value], hash: u64) -> bool {
        assert_eq!(row.len(), self.arity, "row of the wrong arity");
        self.reserve_one();
        match self.lookup(row, hash) {
            Ok(_) => false,
            Err(slot) => {
                self.cells.extend_from_slice(row);
                self.commit(slot, hash);
                true
            }
        }
    }

    /// Insert every row of `other` (of the same arity) that is not here
    /// yet, reusing the hashes `other` already holds; `true` if any was.
    pub(crate) fn extend_from(&mut self, other: &Rel) -> bool {
        let mut grew = false;
        for (r, &hash) in other.hashes.iter().enumerate() {
            grew |= self.insert_hashed(other.row(r), hash);
        }
        grew
    }

    /// Empty the slot `hole`, shifting later rows of its probe run back so
    /// that every row stays reachable from its home slot.
    fn unslot(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut s = hole;
        loop {
            s = (s + 1) & mask;
            let r = self.slots[s];
            if r == EMPTY {
                break;
            }
            let home = self.hashes[r as usize] as usize & mask;
            // `r` may fill the hole unless its home lies after the hole.
            if s.wrapping_sub(home) & mask >= s.wrapping_sub(hole) & mask {
                self.slots[hole] = r;
                hole = s;
            }
        }
        self.slots[hole] = EMPTY;
    }

    /// Remove the row equal to `row`, moving the last row into its place;
    /// `false` if there is none.
    pub(crate) fn remove(&mut self, row: &[Value]) -> bool {
        if self.is_empty() {
            return false;
        }
        let Ok(slot) = self.lookup(row, hash_row(row)) else {
            return false;
        };
        let (r, last) = (self.slots[slot] as usize, self.len - 1);
        let (a, cells) = (self.arity, &self.cells);
        for idx in &mut self.indexes {
            idx.drop_row(&cells[r * a..(r + 1) * a], r as u32);
            if r != last {
                idx.renumber(&cells[last * a..(last + 1) * a], last as u32, r as u32);
            }
        }
        self.unslot(slot);
        if r != last {
            let moved = self.slot_of(last);
            self.slots[moved] = r as u32;
            self.hashes[r] = self.hashes[last];
            let (head, tail) = self.cells.split_at_mut(last * a);
            head[r * a..(r + 1) * a].swap_with_slice(tail);
        }
        self.hashes.pop();
        self.cells.truncate(last * a);
        self.len = last;
        true
    }

    /// Drop every row numbered `n` or above.
    pub(crate) fn truncate(&mut self, n: usize) {
        while self.len > n {
            let r = self.len - 1;
            let row = &self.cells[r * self.arity..];
            for idx in &mut self.indexes {
                idx.drop_row(row, r as u32);
            }
            let slot = self.slot_of(r);
            self.unslot(slot);
            self.hashes.pop();
            self.cells.truncate(r * self.arity);
            self.len = r;
        }
    }

    /// Drop every row and every index's content (an index is built again
    /// on its next use), keeping the allocations for the next rows.
    pub(crate) fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.cells.clear();
        self.hashes.clear();
        self.len = 0;
        for idx in &mut self.indexes {
            idx.map = None;
        }
    }

    /// Empty the relation for rows of `arity` values: how one staging
    /// buffer serves every rule.
    pub(crate) fn reset(&mut self, arity: usize) {
        self.clear();
        self.arity = arity;
    }

    /// The number of the index over `cols`, declared on first request
    /// (instantiation time only).
    pub(crate) fn index_slot(&mut self, cols: &[usize]) -> usize {
        if let Some(k) = self.indexes.iter().position(|idx| idx.cols == cols) {
            return k;
        }
        self.indexes.push(Index {
            cols: cols.to_vec(),
            map: None,
        });
        self.indexes.len() - 1
    }

    /// Build index `k` from the current rows if it is not live yet.
    pub(crate) fn ensure_index(&mut self, k: usize) {
        if self.indexes[k].map.is_some() {
            return;
        }
        let mut idx = Index {
            cols: std::mem::take(&mut self.indexes[k].cols),
            map: Some(HashMap::default()),
        };
        for r in 0..self.len {
            idx.add(self.row(r), r as u32);
        }
        self.indexes[k] = idx;
    }

    /// The numbers of the rows whose index-`k` key is `key` (the index
    /// must be live).
    pub(crate) fn probe(&self, k: usize, key: &[Value]) -> &[u32] {
        self.indexes[k]
            .map
            .as_ref()
            .expect("index ensured before use")
            .get(key)
            .map_or(&[], Vec::as_slice)
    }

    /// The rows as tuples, in sorted order: the one place order is
    /// imposed, where rows leave the engine.
    pub(crate) fn sorted_tuples(&self) -> Vec<Tuple> {
        let int = |v: &Value| v.as_int().expect("an all-integer relation");
        if matches!(self.arity, 1 | 2) && self.cells.iter().all(|v| v.as_int().is_some()) {
            // Integer rows sort as inline pairs: no row comparison
            // reaches through to the cells.
            let mut keys: Vec<[i64; 2]> = self
                .rows()
                .map(|row| [int(&row[0]), row.get(1).map_or(0, int)])
                .collect();
            keys.sort_unstable();
            return keys
                .iter()
                .map(|key| Tuple(key[..self.arity].iter().map(|&i| Value::Int(i)).collect()))
                .collect();
        }
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_unstable_by(|&a, &b| self.row(a).cmp(self.row(b)));
        order
            .into_iter()
            .map(|r| Tuple(self.row(r).to_vec()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// One step of a random history (see [`ops`]).
    #[derive(Debug, Clone)]
    enum Op {
        /// Insert a (usually new) row.
        Insert(i64, i64),
        /// Insert the row at this position of the model again.
        Duplicate(usize),
        /// Remove the row at this position of the model.
        Remove(usize),
        /// Remove a row that is not there.
        RemoveAbsent(i64),
        /// Remember the row count as the watermark.
        Mark,
        /// Drop every row past the watermark.
        Truncate,
        /// Build the second index (the first is live from the start).
        BuildSecond,
    }

    /// Small values and multiples of 2^20: the latter share their low
    /// bits, so a weak hash sends them down one long probe run.
    fn value() -> impl Strategy<Value = i64> {
        prop_oneof![0i64..6, (0i64..40).prop_map(|k| k << 20)]
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            (value(), value()).prop_map(|(a, b)| Op::Insert(a, b)),
            (value(), value()).prop_map(|(a, b)| Op::Insert(a, b)),
            (value(), value()).prop_map(|(a, b)| Op::Insert(a, b)),
            any::<usize>().prop_map(Op::Duplicate),
            any::<usize>().prop_map(Op::Remove),
            any::<usize>().prop_map(Op::Remove),
            value().prop_map(|a| Op::RemoveAbsent(a + 1_000_000_000)),
            Just(Op::Mark),
            Just(Op::Truncate),
            Just(Op::BuildSecond),
        ];
        proptest::collection::vec(op, 0..160)
    }

    fn contains(rel: &Rel, row: &[Value]) -> bool {
        !rel.is_empty() && rel.lookup(row, hash_row(row)).is_ok()
    }

    fn pair(a: i64, b: i64) -> Vec<Value> {
        vec![Value::Int(a), Value::Int(b)]
    }

    /// The relation's rows equal the model row for row, the table finds
    /// every row under its own number, and every live index bucket holds
    /// exactly the rows a scan of the model finds for its key.
    fn check(rel: &Rel, model: &[Vec<Value>], live: &[(usize, Vec<usize>)]) {
        assert_eq!(rel.len(), model.len());
        let rows: Vec<&[Value]> = rel.rows().collect();
        let expected: Vec<&[Value]> = model.iter().map(Vec::as_slice).collect();
        assert_eq!(rows, expected, "rows in model order");
        let set: BTreeSet<Tuple> = rel.rows().map(|r| Tuple(r.to_vec())).collect();
        let model_set: BTreeSet<Tuple> = model.iter().map(|r| Tuple(r.clone())).collect();
        assert_eq!(set, model_set);
        assert_eq!(
            rel.sorted_tuples(),
            model_set.into_iter().collect::<Vec<_>>()
        );
        for (r, row) in model.iter().enumerate() {
            assert!(contains(rel, row));
            assert_eq!(
                rel.slots[rel.slot_of(r)],
                r as u32,
                "table points at row {r}"
            );
        }
        assert_eq!(
            rel.slots.iter().filter(|&&s| s != EMPTY).count(),
            model.len(),
            "one slot per row"
        );
        for (k, cols) in live {
            let map = rel.indexes[*k].map.as_ref().expect("live index");
            let mut keys = BTreeSet::new();
            for row in model {
                let key = key_of(row, cols);
                let scan: Vec<u32> = (0..model.len() as u32)
                    .filter(|&r| key_of(&model[r as usize], cols) == key)
                    .collect();
                let mut bucket = rel.probe(*k, &key).to_vec();
                bucket.sort_unstable();
                assert_eq!(bucket, scan, "index {k} bucket for {key:?}");
                keys.insert(key.into_owned());
            }
            assert_eq!(map.len(), keys.len(), "index {k} keeps no empty bucket");
            let filed: usize = map.values().map(Vec::len).sum();
            assert_eq!(filed, model.len(), "index {k} files each row once");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn a_relation_follows_its_model_through_any_history(history in ops()) {
            let mut rel = Rel::new(2);
            // Index 0 on the second column, live from the start; index 1
            // on both columns, built part-way through a history.
            let by_second = rel.index_slot(&[1]);
            let by_both = rel.index_slot(&[0, 1]);
            assert_eq!(rel.index_slot(&[1]), by_second, "one index per key");
            rel.ensure_index(by_second);
            let mut live = vec![(by_second, vec![1])];
            let mut model: Vec<Vec<Value>> = Vec::new();
            let mut mark = 0;
            for op in history {
                match op {
                    Op::Insert(a, b) => {
                        let row = pair(a, b);
                        let new = !model.contains(&row);
                        prop_assert_eq!(rel.push_with(|c| c.extend(row.iter().cloned())), new);
                        if new {
                            model.push(row);
                        }
                    }
                    Op::Duplicate(i) if !model.is_empty() => {
                        let row = model[i % model.len()].clone();
                        prop_assert!(!rel.insert(&row));
                    }
                    Op::Remove(i) if !model.is_empty() => {
                        // The last row moves into the hole: the model
                        // does what `Vec::swap_remove` does.
                        let i = i % model.len();
                        let row = model.swap_remove(i);
                        prop_assert!(rel.remove(&row));
                        prop_assert!(!contains(&rel, &row));
                        if i < model.len() {
                            prop_assert_eq!(rel.row(i), model[i].as_slice());
                        }
                        mark = mark.min(model.len());
                    }
                    Op::RemoveAbsent(a) => prop_assert!(!rel.remove(&pair(a, a))),
                    Op::Mark => mark = model.len(),
                    Op::Truncate => {
                        rel.truncate(mark);
                        model.truncate(mark);
                    }
                    Op::BuildSecond => {
                        rel.ensure_index(by_both);
                        if !live.iter().any(|(k, _)| *k == by_both) {
                            live.push((by_both, vec![0, 1]));
                        }
                    }
                    Op::Duplicate(_) | Op::Remove(_) => {}
                }
                check(&rel, &model, &live);
            }
            rel.clear();
            model.clear();
            check(&rel, &model, &[]);
            prop_assert!(rel.indexes.iter().all(|idx| idx.map.is_none()));
            prop_assert!(rel.push_with(|c| c.extend(pair(1, 1))));
        }
    }

    #[test]
    fn an_empty_relation_allocates_nothing() {
        let mut rel = Rel::new(3);
        rel.index_slot(&[0, 2]);
        assert_eq!(rel.cells.capacity(), 0);
        assert_eq!(rel.hashes.capacity(), 0);
        assert_eq!(rel.slots.capacity(), 0);
        assert!(!contains(
            &rel,
            &[Value::Int(1), Value::Int(2), Value::Int(3)]
        ));
        assert!(!rel.remove(&[Value::Int(1), Value::Int(2), Value::Int(3)]));
    }
}
