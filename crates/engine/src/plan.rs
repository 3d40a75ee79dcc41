//! The round plan: every directed edge of a round, decided once.
//!
//! [`RoundPlan::resolve`] walks the round's effective mixing a single
//! time and writes one [`PlanRow`] per off-diagonal entry — who sends to
//! whom, at what weight, under which codec, what became of the message,
//! and how many bytes the ledger charges for it. It is the only place
//! the transport's loss stream, the late-edge set, the compression
//! policy and the byte quote are consulted; the executor's
//! share/aggregate and accounting passes read the table and nothing
//! else.
//!
//! An edge gated out by churn or battery never reaches the plan: the
//! participation gate has already masked every node it did not admit out
//! of the mixing, in one [`MixingMatrix::masked_into`] pass, before the
//! round was timed — so the event engine's late set is a subset of the
//! rows here and its late counter equals the number of [`Fate::Late`] rows. For an edge that
//! does have a row, a message that missed the round deadline is `Late`
//! whatever the transport drew; otherwise the transport's draw stands.

use crate::executor::SimulationConfig;
use crate::transport::{rarity_k, tier_codec, CompressionPolicy, MessageFate, ModelCodec};
use skiptrain_energy::battery::BatteryState;
use skiptrain_topology::MixingMatrix;

/// What became of one directed message. Only `Delivered` reaches the
/// aggregation (and charges rx, and advances a feedback replica); every
/// other fate charges tx only and folds the edge weight back onto the
/// receiver's own model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Arrived intact and on time.
    Delivered,
    /// Lost in transit.
    Dropped,
    /// Arrived mangled; the receive-side checksum rejects it.
    Corrupted,
    /// Missed the round deadline (event engine, deadline semantics).
    Late,
}

/// One directed edge `src → dst` of the round's effective mixing.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanRow {
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) weight: f32,
    pub(crate) codec: ModelCodec,
    pub(crate) fate: Fate,
    /// Wire bytes the ledger charges per tx (and per rx when delivered).
    pub(crate) charged_bytes: u64,
}

/// One entry of a receiver's mixing row, in mixing-row order.
pub(crate) enum Entry<'a> {
    /// The receiver's own (diagonal) weight.
    Own(f32),
    /// An in-edge.
    Edge(&'a PlanRow),
}

impl Entry<'_> {
    pub(crate) fn weight(&self) -> f32 {
        match self {
            Entry::Own(w) => *w,
            Entry::Edge(row) => row.weight,
        }
    }
}

/// Where one receiver's rows sit in the table and where its diagonal
/// entry sat among them (the three aggregation kernels accumulate in
/// mixing-row order, so the position is part of the result's bits).
#[derive(Debug, Clone, Copy)]
struct Receiver {
    start: usize,
    end: usize,
    /// Number of in-edges that precede the diagonal entry.
    self_pos: usize,
    /// `None` when the mixing row carries no diagonal entry.
    self_weight: Option<f32>,
}

/// Directed-link key for the lowered per-link codec table.
#[inline]
fn link_key(src: u32, dst: u32) -> u64 {
    (src as u64) << 32 | dst as u64
}

/// The resolved round (see the module docs), plus the per-link policy
/// state resolution needs. All buffers keep their capacity across
/// rounds.
#[derive(Debug, Clone)]
pub(crate) struct RoundPlan {
    rows: Vec<PlanRow>,
    receivers: Vec<Receiver>,
    /// Nodes with at least one out-edge this round.
    sends: Vec<bool>,
    shared_payload: Option<ModelCodec>,
    /// Simulated parameter count (byte quotes scale from it).
    sim_params: usize,
    /// [`CompressionPolicy::PerLink`] table lowered to a binary-searchable
    /// form: `(src << 32 | dst, codec)`, sorted by key.
    link_table: Vec<(u64, ModelCodec)>,
    /// Per-receiver `(sender, fires)` counters, sorted by sender, for
    /// [`CompressionPolicy::RarityAdaptive`]: how many rounds each
    /// directed link has been on the effective mixing so far.
    link_fires: Vec<Vec<(u32, u64)>>,
}

impl RoundPlan {
    /// An empty plan for `n` nodes with room for `edges` rows.
    pub(crate) fn new(
        n: usize,
        edges: usize,
        sim_params: usize,
        policy: &CompressionPolicy,
    ) -> Self {
        let mut link_table = Vec::new();
        if let CompressionPolicy::PerLink { links, .. } = policy {
            link_table.extend(links.iter().map(|l| (link_key(l.src, l.dst), l.codec)));
            link_table.sort_by_key(|&(k, _)| k);
        }
        Self {
            rows: Vec::with_capacity(edges),
            receivers: Vec::with_capacity(n),
            sends: vec![false; n],
            shared_payload: None,
            sim_params,
            link_table,
            link_fires: vec![Vec::new(); n],
        }
    }

    /// Decides every directed edge of `mixing` for `round`.
    ///
    /// `late` is the sorted late-edge set of an event-engine round (empty
    /// otherwise); `charge` is the post-recharge battery state energy-
    /// adaptive tiers read (a sender without a battery resolves at 1.0).
    /// Rarity fire counters bump *before* a link resolves, so an always-on
    /// link gets `base_k` and a first-contact link on round `r` the full
    /// `r`× boost.
    pub(crate) fn resolve(
        &mut self,
        config: &SimulationConfig,
        feedback_on: bool,
        round: usize,
        mixing: &MixingMatrix,
        late: &[(u32, u32)],
        charge: Option<&BatteryState>,
    ) {
        // One payload per sender is possible only when every link uses
        // the same codec by *policy* and no per-link replica makes the
        // payloads differ. A constant codec column under an adaptive
        // policy does not count: the kernel must not flip between rounds.
        self.shared_payload = config
            .compression
            .uniform()
            .filter(|codec| !feedback_on || *codec == ModelCodec::DenseF32);
        let nominal = config.nominal_params.unwrap_or(self.sim_params);
        let elapsed = round as u64 + 1;
        self.rows.clear();
        self.receivers.clear();
        self.sends.fill(false);
        for dst in 0..mixing.len() {
            let start = self.rows.len();
            let mut self_pos = None;
            for &(src, weight) in mixing.row(dst) {
                if src as usize == dst {
                    self_pos = Some((self.rows.len() - start, weight));
                    continue;
                }
                let codec = match &config.compression {
                    CompressionPolicy::Uniform(codec) => *codec,
                    CompressionPolicy::PerLink { default, .. } => {
                        let key = link_key(src, dst as u32);
                        match self.link_table.binary_search_by_key(&key, |&(k, _)| k) {
                            Ok(pos) => self.link_table[pos].1,
                            Err(_) => *default,
                        }
                    }
                    CompressionPolicy::RarityAdaptive { base_k, max_k } => {
                        let fires = &mut self.link_fires[dst];
                        let fired = match fires.binary_search_by_key(&src, |&(s, _)| s) {
                            Ok(pos) => {
                                fires[pos].1 += 1;
                                fires[pos].1
                            }
                            Err(pos) => {
                                fires.insert(pos, (src, 1));
                                1
                            }
                        };
                        ModelCodec::TopK {
                            k: rarity_k(*base_k, *max_k, elapsed, fired),
                        }
                    }
                    CompressionPolicy::EnergyAdaptive { tiers } => tier_codec(
                        tiers,
                        charge.map_or(1.0, |b| b.charge_fraction(src as usize)),
                    ),
                };
                let fate = if late.binary_search(&(src, dst as u32)).is_ok() {
                    Fate::Late
                } else {
                    match config.transport.fate(config.seed, round, src as usize, dst) {
                        MessageFate::Delivered => Fate::Delivered,
                        MessageFate::Dropped => Fate::Dropped,
                        MessageFate::Corrupted => Fate::Corrupted,
                    }
                };
                self.sends[src as usize] = true;
                self.rows.push(PlanRow {
                    src,
                    dst: dst as u32,
                    weight,
                    codec,
                    fate,
                    charged_bytes: codec.charged_message_bytes(self.sim_params, nominal),
                });
            }
            let end = self.rows.len();
            self.receivers.push(Receiver {
                start,
                end,
                self_pos: self_pos.map_or(end - start, |(pos, _)| pos),
                self_weight: self_pos.map(|(_, w)| w),
            });
        }
    }

    /// Buffer capacities, for the capacity-reuse property test.
    #[cfg(test)]
    pub(crate) fn capacities(&self) -> [usize; 3] {
        [
            self.rows.capacity(),
            self.receivers.capacity(),
            self.sends.capacity(),
        ]
    }

    /// Every row, grouped by receiver, in mixing-row order.
    pub(crate) fn rows(&self) -> &[PlanRow] {
        &self.rows
    }

    /// `Some(codec)` when every sender's payload is the same for all its
    /// receivers (compress once per sender), `None` when payloads are
    /// per edge.
    pub(crate) fn shared_payload(&self) -> Option<ModelCodec> {
        self.shared_payload
    }

    /// True when `node` has at least one out-edge this round.
    pub(crate) fn sends(&self, node: usize) -> bool {
        self.sends[node]
    }

    /// Receiver `dst`'s mixing row — its in-edges and its own weight —
    /// in mixing-row order.
    pub(crate) fn entries(&self, dst: usize) -> impl Iterator<Item = Entry<'_>> {
        let r = self.receivers[dst];
        let (before, after) = self.rows[r.start..r.end].split_at(r.self_pos);
        before
            .iter()
            .map(Entry::Edge)
            .chain(r.self_weight.map(Entry::Own))
            .chain(after.iter().map(Entry::Edge))
    }

    /// Appends receiver `dst`'s row as the dense shared-payload kernel sums
    /// it: the delivered entries in mixing-row order, with the weight of
    /// every undelivered row folded onto the self entry where it sits
    /// (appended when the row has none and something was lost).
    pub(crate) fn dense_row_into(
        &self,
        dst: usize,
        indices: &mut Vec<u32>,
        weights: &mut Vec<f32>,
    ) {
        let mut fallback = 0.0f32;
        let mut self_at = None;
        for entry in self.entries(dst) {
            match entry {
                Entry::Own(w) => {
                    self_at = Some(indices.len());
                    indices.push(dst as u32);
                    weights.push(w);
                }
                Entry::Edge(row) if row.fate == Fate::Delivered => {
                    indices.push(row.src);
                    weights.push(row.weight);
                }
                Entry::Edge(row) => fallback += row.weight,
            }
        }
        match self_at {
            Some(pos) => weights[pos] += fallback,
            None if fallback > 0.0 => {
                indices.push(dst as u32);
                weights.push(fallback);
            }
            None => {}
        }
    }
}
