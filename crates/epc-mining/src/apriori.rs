//! Apriori frequent-itemset mining (Agrawal et al. 1993) — the engine
//! behind INDICE's association-rule discovery (§2.2.2).

use std::collections::{BTreeMap, BTreeSet};

/// A sorted, duplicate-free set of item ids.
pub type Itemset = Vec<u32>;

/// Interns item strings (`"u_windows=High"`) to dense ids.
#[derive(Debug, Clone, Default)]
pub struct ItemDictionary {
    names: Vec<String>,
    ids: BTreeMap<String, u32>,
}

impl ItemDictionary {
    /// Interns `name`, returning its id.
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), id);
        id
    }

    /// The name of an item id.
    pub fn name(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// The id of an item name, if interned.
    pub fn id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// Number of distinct items.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when no items are interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Resolves an itemset to names (unknown ids are skipped).
    pub fn resolve(&self, itemset: &[u32]) -> Vec<String> {
        itemset
            .iter()
            .filter_map(|&id| self.name(id).map(str::to_owned))
            .collect()
    }
}

/// A transactional dataset of categorical items.
#[derive(Debug, Clone, Default)]
pub struct TransactionSet {
    /// The item dictionary shared by all transactions.
    pub dict: ItemDictionary,
    transactions: Vec<Itemset>,
}

impl TransactionSet {
    /// An empty transaction set.
    pub fn new() -> Self {
        TransactionSet::default()
    }

    /// Adds a transaction from item names (duplicates collapse).
    pub fn push(&mut self, items: &[&str]) {
        let mut t: Itemset = items.iter().map(|s| self.dict.intern(s)).collect();
        t.sort_unstable();
        t.dedup();
        self.transactions.push(t);
    }

    /// Adds a transaction of owned strings.
    pub fn push_owned(&mut self, items: &[String]) {
        let refs: Vec<&str> = items.iter().map(String::as_str).collect();
        self.push(&refs);
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.transactions.len()
    }

    /// `true` when there are no transactions.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// The transactions (sorted, deduplicated item ids).
    pub fn transactions(&self) -> &[Itemset] {
        &self.transactions
    }
}

/// A frequent itemset with its absolute support count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemset {
    /// The items, sorted.
    pub items: Itemset,
    /// Number of transactions containing the itemset.
    pub count: usize,
}

impl FrequentItemset {
    /// Relative support given the total transaction count.
    pub fn support(&self, n_transactions: usize) -> f64 {
        self.count as f64 / n_transactions.max(1) as f64
    }
}

/// Per-lattice-level counts captured by [`Apriori::mine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AprioriLevelStats {
    /// Itemset size at this level (1 = single items).
    pub level: usize,
    /// Candidates generated for the level (level 1: distinct items seen).
    pub candidates: usize,
    /// Candidates discarded for missing the minimum support count.
    pub pruned: usize,
    /// Candidates surviving as frequent itemsets.
    pub frequent: usize,
}

/// Level-by-level mining diagnostics; a pure function of the input data
/// and miner parameters, so safe to trace deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AprioriTrace {
    /// One entry per lattice level actually explored, in level order.
    pub levels: Vec<AprioriLevelStats>,
}

/// The Apriori miner.
#[derive(Debug, Clone)]
pub struct Apriori {
    /// Minimum relative support in `(0, 1]`.
    pub min_support: f64,
    /// Maximum itemset size mined (bounds the lattice walk; rules of the
    /// dashboards rarely need more than 4 items).
    pub max_len: usize,
}

impl Default for Apriori {
    fn default() -> Self {
        Apriori {
            min_support: 0.05,
            max_len: 4,
        }
    }
}

/// Transactions folded per chunk when counting candidate supports in
/// parallel. Fixed (independent of the thread budget) so the reduction
/// tree — and hence the counts — never depends on how many workers ran.
const SUPPORT_COUNT_CHUNK: usize = 512;

impl Apriori {
    /// Mines all frequent itemsets of `data` (sizes 1..=`max_len`), with
    /// per-level candidate/pruned/frequent counts for observability.
    ///
    /// Candidate-support counting — the pass over every transaction per
    /// lattice level — runs as a chunked parallel reduction merging integer
    /// count vectors, which is exact regardless of the thread budget.
    pub fn mine(
        &self,
        data: &TransactionSet,
        runtime: &epc_runtime::RuntimeConfig,
    ) -> (Vec<FrequentItemset>, AprioriTrace) {
        let mut trace = AprioriTrace::default();
        let n = data.len();
        if n == 0 || self.min_support <= 0.0 {
            return (Vec::new(), trace);
        }
        let min_count = (self.min_support * n as f64).ceil().max(1.0) as usize;

        // L1: frequent single items. Ordered map: iteration feeds the
        // frequent-set output, so hash order must never reach it (D3).
        let mut item_counts: BTreeMap<u32, usize> = BTreeMap::new();
        for t in data.transactions() {
            for &i in t {
                *item_counts.entry(i).or_insert(0) += 1;
            }
        }
        let n_items = item_counts.len();
        let mut current: Vec<FrequentItemset> = item_counts
            .into_iter()
            .filter(|&(_, c)| c >= min_count)
            .map(|(i, count)| FrequentItemset {
                items: vec![i],
                count,
            })
            .collect();
        current.sort_by(|a, b| a.items.cmp(&b.items));
        trace.levels.push(AprioriLevelStats {
            level: 1,
            candidates: n_items,
            pruned: n_items - current.len(),
            frequent: current.len(),
        });

        let mut all = current.clone();
        let mut k = 1usize;
        while !current.is_empty() && k < self.max_len {
            k += 1;
            let candidates = generate_candidates(&current);
            if candidates.is_empty() {
                break;
            }
            let n_candidates = candidates.len();
            // Count candidate supports with one (chunk-parallel) pass over
            // the transactions.
            let counts = epc_runtime::par_reduce(
                runtime,
                data.transactions(),
                SUPPORT_COUNT_CHUNK,
                || vec![0usize; candidates.len()],
                |mut acc, t| {
                    if t.len() >= k {
                        for (ci, c) in candidates.iter().enumerate() {
                            if is_subset(c, t) {
                                acc[ci] += 1;
                            }
                        }
                    }
                    acc
                },
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                    a
                },
            );
            current = candidates
                .into_iter()
                .zip(counts)
                .filter(|&(_, c)| c >= min_count)
                .map(|(items, count)| FrequentItemset { items, count })
                .collect();
            current.sort_by(|a, b| a.items.cmp(&b.items));
            trace.levels.push(AprioriLevelStats {
                level: k,
                candidates: n_candidates,
                pruned: n_candidates - current.len(),
                frequent: current.len(),
            });
            all.extend(current.iter().cloned());
        }
        (all, trace)
    }
}

/// Apriori-gen: joins k-itemsets sharing their first k−1 items and prunes
/// candidates with an infrequent (k)-subset.
fn generate_candidates(frequent: &[FrequentItemset]) -> Vec<Itemset> {
    let frequent_set: BTreeSet<&[u32]> = frequent.iter().map(|f| f.items.as_slice()).collect();
    let mut out = Vec::new();
    for (i, a) in frequent.iter().enumerate() {
        for b in &frequent[i + 1..] {
            let k = a.items.len();
            // Join condition: identical prefix of length k−1.
            if a.items[..k - 1] != b.items[..k - 1] {
                // Sorted order means once prefixes diverge, later b's
                // prefixes diverge too.
                break;
            }
            let mut candidate = a.items.clone();
            candidate.push(b.items[k - 1]);
            debug_assert!(candidate.windows(2).all(|w| w[0] < w[1]));
            // Prune: every k-subset must be frequent.
            let all_subsets_frequent = (0..candidate.len()).all(|skip| {
                let sub: Vec<u32> = candidate
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != skip)
                    .map(|(_, &v)| v)
                    .collect();
                frequent_set.contains(sub.as_slice())
            });
            if all_subsets_frequent {
                out.push(candidate);
            }
        }
    }
    out
}

/// `true` when sorted `needle` ⊆ sorted `haystack` (merge scan).
pub fn is_subset(needle: &[u32], haystack: &[u32]) -> bool {
    let mut hi = 0;
    'outer: for &n in needle {
        while hi < haystack.len() {
            match haystack[hi].cmp(&n) {
                std::cmp::Ordering::Less => hi += 1,
                std::cmp::Ordering::Equal => {
                    hi += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use epc_runtime::RuntimeConfig;

    /// The classic market-basket example.
    fn market() -> TransactionSet {
        let mut t = TransactionSet::new();
        t.push(&["bread", "milk"]);
        t.push(&["bread", "diapers", "beer", "eggs"]);
        t.push(&["milk", "diapers", "beer", "cola"]);
        t.push(&["bread", "milk", "diapers", "beer"]);
        t.push(&["bread", "milk", "diapers", "cola"]);
        t
    }

    fn find<'a>(
        all: &'a [FrequentItemset],
        dict: &ItemDictionary,
        names: &[&str],
    ) -> Option<&'a FrequentItemset> {
        let mut ids: Vec<u32> = names.iter().map(|n| dict.id(n).unwrap()).collect();
        ids.sort_unstable();
        all.iter().find(|f| f.items == ids)
    }

    #[test]
    fn singleton_supports_match_hand_counts() {
        let data = market();
        let all = Apriori {
            min_support: 0.2,
            max_len: 3,
        }
        .mine(&data, &RuntimeConfig::sequential())
        .0;
        assert_eq!(find(&all, &data.dict, &["bread"]).unwrap().count, 4);
        assert_eq!(find(&all, &data.dict, &["milk"]).unwrap().count, 4);
        assert_eq!(find(&all, &data.dict, &["diapers"]).unwrap().count, 4);
        assert_eq!(find(&all, &data.dict, &["beer"]).unwrap().count, 3);
        assert_eq!(find(&all, &data.dict, &["cola"]).unwrap().count, 2);
        // At 20% (min count 1) even eggs survives.
        assert_eq!(find(&all, &data.dict, &["eggs"]).unwrap().count, 1);
    }

    #[test]
    fn eggs_is_pruned_at_40_percent() {
        let data = market();
        let all = Apriori {
            min_support: 0.4,
            max_len: 3,
        }
        .mine(&data, &RuntimeConfig::sequential())
        .0;
        assert!(find(&all, &data.dict, &["eggs"]).is_none());
        // cola appears in 2/5 = 40% of transactions, exactly at threshold.
        assert_eq!(find(&all, &data.dict, &["cola"]).unwrap().count, 2);
    }

    #[test]
    fn pair_supports() {
        let data = market();
        let all = Apriori {
            min_support: 0.4,
            max_len: 3,
        }
        .mine(&data, &RuntimeConfig::sequential())
        .0;
        assert_eq!(
            find(&all, &data.dict, &["beer", "diapers"]).unwrap().count,
            3
        );
        assert_eq!(find(&all, &data.dict, &["bread", "milk"]).unwrap().count, 3);
        assert_eq!(
            find(&all, &data.dict, &["milk", "diapers"]).unwrap().count,
            3
        );
    }

    #[test]
    fn triple_is_found_at_low_support() {
        let data = market();
        let all = Apriori {
            min_support: 0.3,
            max_len: 3,
        }
        .mine(&data, &RuntimeConfig::sequential())
        .0;
        let t = find(&all, &data.dict, &["bread", "milk", "diapers"]).unwrap();
        assert_eq!(t.count, 2);
        assert!((t.support(data.len()) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn support_is_antimonotone() {
        // Every frequent itemset's subsets must be at least as frequent.
        let data = market();
        let all = Apriori {
            min_support: 0.2,
            max_len: 4,
        }
        .mine(&data, &RuntimeConfig::sequential())
        .0;
        let by_items: BTreeMap<&[u32], usize> =
            all.iter().map(|f| (f.items.as_slice(), f.count)).collect();
        for f in &all {
            if f.items.len() < 2 {
                continue;
            }
            for skip in 0..f.items.len() {
                let sub: Vec<u32> = f
                    .items
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != skip)
                    .map(|(_, &v)| v)
                    .collect();
                let sub_count = by_items
                    .get(sub.as_slice())
                    .unwrap_or_else(|| panic!("subset of frequent set missing: {sub:?}"));
                assert!(*sub_count >= f.count);
            }
        }
    }

    #[test]
    fn parallel_mine_matches_sequential() {
        // Enough transactions to span several counting chunks.
        let mut data = TransactionSet::new();
        let pool = ["a", "b", "c", "d", "e", "f"];
        for i in 0..1500usize {
            let items: Vec<&str> = pool
                .iter()
                .enumerate()
                .filter(|&(j, _)| (i * 7 + j * 13) % (j + 2) == 0)
                .map(|(_, &s)| s)
                .collect();
            data.push(&items);
        }
        let miner = Apriori {
            min_support: 0.05,
            max_len: 4,
        };
        let seq = miner.mine(&data, &RuntimeConfig::sequential());
        for threads in [2usize, 8] {
            let par = miner.mine(&data, &RuntimeConfig::new(threads));
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn traced_mine_matches_untraced_and_counts_conserve() {
        let data = market();
        let miner = Apriori {
            min_support: 0.4,
            max_len: 3,
        };
        let (frequent, trace) = miner.mine(&data, &RuntimeConfig::sequential());
        assert!(!trace.levels.is_empty());
        assert_eq!(trace.levels[0].level, 1);
        assert_eq!(trace.levels[0].candidates, 6, "six distinct items");
        for (i, level) in trace.levels.iter().enumerate() {
            assert_eq!(level.level, i + 1, "levels are dense");
            assert_eq!(level.candidates, level.pruned + level.frequent);
        }
        let total_frequent: usize = trace.levels.iter().map(|l| l.frequent).sum();
        assert_eq!(total_frequent, frequent.len());
    }

    #[test]
    fn max_len_bounds_itemset_size() {
        let data = market();
        let all = Apriori {
            min_support: 0.2,
            max_len: 2,
        }
        .mine(&data, &RuntimeConfig::sequential())
        .0;
        assert!(all.iter().all(|f| f.items.len() <= 2));
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let empty = TransactionSet::new();
        assert!(Apriori::default()
            .mine(&empty, &RuntimeConfig::sequential())
            .0
            .is_empty());
        let data = market();
        assert!(Apriori {
            min_support: 0.0,
            max_len: 3
        }
        .mine(&data, &RuntimeConfig::sequential())
        .0
        .is_empty());
        let all = Apriori {
            min_support: 1.1,
            max_len: 3,
        }
        .mine(&data, &RuntimeConfig::sequential())
        .0;
        assert!(all.is_empty(), "support > 1 can never be reached");
    }

    #[test]
    fn duplicates_in_transaction_collapse() {
        let mut t = TransactionSet::new();
        t.push(&["a", "a", "b"]);
        assert_eq!(t.transactions()[0].len(), 2);
    }

    #[test]
    fn is_subset_cases() {
        assert!(is_subset(&[], &[1, 2]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[4], &[1, 2, 3]));
        assert!(!is_subset(&[1, 2], &[2]));
        assert!(!is_subset(&[0], &[]));
    }

    #[test]
    fn dictionary_round_trip() {
        let mut d = ItemDictionary::default();
        let a = d.intern("x=Low");
        let b = d.intern("y=High");
        assert_eq!(d.intern("x=Low"), a, "re-intern returns same id");
        assert_eq!(d.name(a), Some("x=Low"));
        assert_eq!(d.id("y=High"), Some(b));
        assert_eq!(d.len(), 2);
        assert_eq!(d.resolve(&[b, a]), vec!["y=High", "x=Low"]);
    }
}
