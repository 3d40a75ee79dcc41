//! Model exchange between neighbors: transports, compression codecs, and
//! the per-link compression policy layer.
//!
//! # Transports
//!
//! * [`TransportKind::Memory`] — a lossless model is read in place, with
//!   zero copies; every lossy message is a frame, written and decoded
//!   exactly as below. Message sizes are still accounted per effective
//!   edge, so energy numbers are transport-independent.
//! * [`TransportKind::Serialized`] — every message is encoded to a
//!   length-prefixed, checksummed byte frame, optionally dropped or
//!   corrupted with a seeded probability, and decoded at the receiver.
//!   This path exists to exercise lossy-network behavior and to measure
//!   serialization overhead in the benches.
//!
//! # Codecs and the wire format
//!
//! A [`ModelCodec`] decides how a flat `f32` model is represented in a
//! message. All codecs share one frame layout (header words, `k` and the
//! checksum big-endian; every other payload word little-endian):
//!
//! ```text
//! [magic  u32]  0x5354524E ("STRN")
//! [codec  u32]  0 = DenseF32, 1 = QuantizedU8, 2 = QuantizedU16, 3 = TopK
//! [sender u32]
//! [round  u32]
//! [count  u32]  original (dense) parameter count
//! --- codec-specific payload, from byte 20 -----------------------------
//! DenseF32:     count × f32 LE
//! QuantizedU8:  min f32 LE, scale f32 LE, count × u8
//! QuantizedU16: min f32 LE, scale f32 LE, count × u16 LE
//! TopK:         k u32 BE, k × (index u32 LE) ascending, k × (value f32 LE)
//! ----------------------------------------------------------------------
//! [checksum u32]  over the payload bytes b₀ … bₙ₋₁ only
//! ```
//!
//! The checksum is the recurrence `c ← rotl(c, 5) ⊕ bᵢ` from `c = 0`.
//! Rotation and XOR are both linear over GF(2), so it unrolls to the
//! closed form `⊕ᵢ rotl(bᵢ, 5·(n−1−i) mod 32)`, and since `rotl 5` applied
//! 32 times is the identity (`5 · 32 ≡ 0 mod 32`), two bytes 32 apart get
//! the same rotation. `checksum_of` therefore XORs whole 32-byte blocks
//! together lane by lane, with no dependency between blocks, and runs the
//! recurrence once over that one block and the `< 32`-byte tail: the same
//! value at every length. Decode verifies it before it parses anything.
//!
//! Payload sections are written with one `resize` and a pass of whole-word
//! stores, quantized codes are computed where they travel, and decode reads
//! each section from the frame's bytes in one pass.
//!
//! The fixed overhead (magic + codec + sender + round + count + checksum)
//! is 24 bytes and matches
//! [`skiptrain_energy::comm::FRAME_OVERHEAD_BYTES`]; per-codec message
//! sizes come from [`ModelCodec::message_bytes`] and feed the per-edge
//! energy ledger.
//!
//! A quantized payload decodes to a view of the verified frame's codes
//! ([`PayloadRef::Quantized`]), reconstructed where the receiver uses
//! them, so the values entering aggregation carry genuine quantization
//! error. Top-k payloads stay sparse: the aggregation substitutes the
//! receiver's own parameters for untransmitted coordinates (see the
//! executor), so sparsification error propagates through training too.
//!
//! # Compression policies: which codec does a link use?
//!
//! Codec *selection* is a policy, not a scalar: a [`CompressionPolicy`]
//! is resolved **per directed link per round** by the executor, and the
//! codec id already travels in every frame header, so heterogeneous
//! links need no wire-format change. Four policies exist:
//!
//! * [`CompressionPolicy::Uniform`] — one codec for every link, the
//!   legacy global-codec behavior: a constant codec column in the round
//!   plan. Unless error feedback makes payloads per-link, each sender's
//!   message is compressed once and shared by all its receivers, and
//!   `Uniform(c)` runs are bit-identical to the pre-policy global
//!   `codec = c` configuration.
//! * [`CompressionPolicy::PerLink`] — an explicit `(src, dst) → codec`
//!   table over a default, for heterogeneous radios.
//! * [`CompressionPolicy::RarityAdaptive`] — top-k with `k` scaled by
//!   how rarely the topology schedule fires a link: a link that fired in
//!   every round so far sends `base_k` coordinates, a link that fires a
//!   fraction `1/m` of rounds sends `min(m · base_k, max_k)` — rare
//!   links carry proportionally richer payloads so their total traffic
//!   stays level (see [`rarity_k`]).
//! * [`CompressionPolicy::EnergyAdaptive`] — DEAL-style decremental
//!   tiers: the codec is a monotone step function of the *sender's*
//!   battery charge fraction (dense when charged, progressively
//!   cheaper codecs as charge falls; see [`EnergyTier`] and
//!   [`tier_codec`]). Senders without a battery resolve at charge 1.0.
//!
//! Per-link policies compose with a consensus stepsize `γ ≤ 1` (the
//! executor's `consensus_gamma`): after aggregation the committed model
//! is `x^t = x^{t−½} + γ (Σ_j W_ji x_j^{t−½} − x^{t−½})`, the damped
//! mixing CHOCO-SGD uses to keep extreme sparsification stable. `γ = 1`
//! is plain gossip and keeps the legacy path bit-exact.
//!
//! Because the codec of a link may change *between firings* (charge
//! recovers, rarity statistics evolve), every per-link consumer —
//! error-feedback replicas, encode/decode scratch, the energy ledger's
//! per-message byte quotes — keys off the codec resolved for that
//! message rather than any global constant. The ledger charges each
//! directed edge the wire bytes of the codec that edge actually used
//! ([`ModelCodec::charged_message_bytes`]).
//!
//! # Error feedback
//!
//! [`ErrorFeedbackState`] holds the per-directed-link accumulators of
//! CHOCO-SGD-style error-feedback compression (see
//! `skiptrain_linalg::compress`): when feedback is enabled, each directed
//! link `j → i` carries a *replica* `x̂_{j→i}` — the receiver's
//! last-delivered estimate of the sender's model — and each firing
//! compresses the accumulated residual `x_j^{t−½} − x̂_{j→i}` instead of
//! the raw model, folding the delivered part back into the replica.
//! Whatever the codec failed to deliver stays in the next residual, so
//! aggressive sparsification no longer starves low-magnitude
//! coordinates. Replicas are codec-agnostic — a replica is just the
//! receiver's dense estimate of the sender's model, advanced by whatever
//! payload the round's resolved codec delivered — so a link's codec may
//! change freely between firings under a per-link policy (a dense
//! firing simply lands the replica on the sender's model exactly).
//! The state is **link-local** — it never travels on the
//! wire, so the frame layout above and every per-message byte count are
//! unchanged by feedback (a top-k frame simply carries delta values
//! instead of absolute ones).

use serde::{Deserialize, Serialize};
use skiptrain_linalg::compress::{
    affine_params, quantize_le, top_k_indices_into, AffineParams, QuantizedRef,
};
use skiptrain_linalg::rng::derive_seed;

/// Frame magic marker ("STRN").
const MAGIC: u32 = 0x5354524E;

/// Fixed per-frame overhead in bytes: magic, codec, sender, round, count,
/// checksum (4 bytes each). Defined by the energy crate's analytic helper
/// so the wire layout and energy accounting cannot drift apart.
pub const FRAME_OVERHEAD: u64 = skiptrain_energy::comm::FRAME_OVERHEAD_BYTES;

/// Byte offset where the checksummed payload begins: five big-endian `u32`
/// header words (magic, codec, sender, round, count).
const PAYLOAD_START: usize = 20;

/// Transport selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum TransportKind {
    /// Zero-copy shared-memory exchange (default).
    #[default]
    Memory,
    /// Serialize/decode every message; drop each directed message
    /// independently with probability `drop_prob`, and corrupt each
    /// surviving message independently with probability `corrupt_prob`
    /// (a deterministic bit-flip in the payload, rejected by the frame
    /// checksum on the receive side and accounted exactly like a drop).
    Serialized {
        /// Per-message drop probability in `[0, 1)`.
        drop_prob: f64,
        /// Per-message corruption probability in `[0, 1)`. A corrupted
        /// frame fails checksum verification at the receiver and degrades
        /// exactly like a drop: tx is charged, rx is not, and the mixing
        /// weight folds back to self. `drop_prob + corrupt_prob` must be
        /// `< 1`.
        #[serde(default)]
        corrupt_prob: f64,
    },
}

/// The seeded outcome of one directed message on a lossy transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Frame arrives intact and is decoded.
    Delivered,
    /// Frame is lost in transit: tx charged, nothing arrives.
    Dropped,
    /// Frame arrives with flipped bits, fails the checksum verify, and is
    /// discarded by the receiver — observationally identical to a drop.
    Corrupted,
}

impl TransportKind {
    /// The fate of the directed message `src → dst` in `round`.
    /// Deterministic in `(seed, round, src, dst)`.
    ///
    /// The decision stream is derived by chaining [`derive_seed`] over the
    /// round, source, and destination, so every `(round, src, dst)` triple
    /// gets an independent avalanche-mixed stream.
    ///
    /// A **single** uniform draw is partitioned over both loss modes:
    /// `u < drop_prob` → dropped, `u < drop_prob + corrupt_prob` →
    /// corrupted, otherwise delivered. Partitioning one draw (rather than
    /// drawing twice) means a `{drop_prob: 0, corrupt_prob: p}` transport
    /// loses *exactly* the same message set as `{drop_prob: p,
    /// corrupt_prob: 0}` — the pinned corruption-equals-drop ledger
    /// equivalence tests rely on this.
    pub fn fate(&self, seed: u64, round: usize, src: usize, dst: usize) -> MessageFate {
        match self {
            TransportKind::Memory => MessageFate::Delivered,
            TransportKind::Serialized {
                drop_prob,
                corrupt_prob,
            } => {
                if *drop_prob <= 0.0 && *corrupt_prob <= 0.0 {
                    return MessageFate::Delivered;
                }
                let h = derive_seed(
                    derive_seed(derive_seed(seed ^ 0xD50F, round as u64), src as u64),
                    dst as u64,
                );
                // map to [0, 1)
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                if u < *drop_prob {
                    MessageFate::Dropped
                } else if u < *drop_prob + *corrupt_prob {
                    MessageFate::Corrupted
                } else {
                    MessageFate::Delivered
                }
            }
        }
    }

    /// Whether the directed message `src → dst` in `round` arrives intact.
    /// Equivalent to `self.fate(..) == MessageFate::Delivered`; kept for
    /// call sites that do not distinguish drops from corruption.
    pub fn delivered(&self, seed: u64, round: usize, src: usize, dst: usize) -> bool {
        self.fate(seed, round, src, dst) == MessageFate::Delivered
    }
}

/// Flip one deterministically chosen payload bit of an encoded frame in
/// place, simulating wire corruption. The bit is selected from a further
/// [`derive_seed`] link of the per-message decision stream, constrained to
/// the payload region `[PAYLOAD_START, len)` so the header stays parseable
/// and the trailing checksum (computed over the payload at encode time) is
/// guaranteed to mismatch — [`decode_frame_into`] must return
/// [`DecodeError::BadChecksum`]. Frames too short to carry a payload are
/// left untouched.
///
/// Allocation-free: mutates the frame buffer in place.
pub fn corrupt_frame_in_place(frame: &mut [u8], seed: u64, round: usize, src: usize, dst: usize) {
    if frame.len() <= PAYLOAD_START {
        return;
    }
    let h = derive_seed(
        derive_seed(derive_seed(seed ^ 0xC0F7, round as u64), src as u64),
        dst as u64,
    );
    let payload_bits = ((frame.len() - PAYLOAD_START) * 8) as u64;
    let bit = h % payload_bits;
    frame[PAYLOAD_START + (bit / 8) as usize] ^= 1u8 << (bit % 8);
}

/// How a model is represented inside a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ModelCodec {
    /// Bit-exact dense `f32` payload (lossless, 4 bytes/param).
    #[default]
    DenseF32,
    /// Per-tensor affine quantization to 8-bit codes (1 byte/param).
    QuantizedU8,
    /// Per-tensor affine quantization to 16-bit codes (2 bytes/param).
    QuantizedU16,
    /// Magnitude sparsification: only the `k` largest-|value| parameters
    /// travel, as (index, value) pairs (8 bytes each).
    TopK {
        /// Number of parameters to keep (clamped to the model size).
        k: usize,
    },
}

impl ModelCodec {
    /// Wire discriminant.
    fn id(&self) -> u32 {
        match self {
            ModelCodec::DenseF32 => 0,
            ModelCodec::QuantizedU8 => 1,
            ModelCodec::QuantizedU16 => 2,
            ModelCodec::TopK { .. } => 3,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ModelCodec::DenseF32 => "dense-f32",
            ModelCodec::QuantizedU8 => "quantized-u8",
            ModelCodec::QuantizedU16 => "quantized-u16",
            ModelCodec::TopK { .. } => "top-k",
        }
    }

    /// True when decode reproduces the encoded model bit-for-bit.
    pub fn is_lossless(&self) -> bool {
        matches!(self, ModelCodec::DenseF32)
    }

    /// Exact wire bytes of one message carrying a model of `params`
    /// parameters under this codec (frame overhead included). This is the
    /// quantity the energy ledger charges per effective edge.
    pub fn message_bytes(&self, params: usize) -> u64 {
        let p = params as u64;
        FRAME_OVERHEAD
            + match self {
                ModelCodec::DenseF32 => 4 * p,
                ModelCodec::QuantizedU8 => 8 + p,
                ModelCodec::QuantizedU16 => 8 + 2 * p,
                ModelCodec::TopK { k } => 4 + 8 * (*k as u64).min(p),
            }
    }

    /// Wire bytes to charge when the energy model accounts at a *nominal*
    /// parameter count different from the simulated model's (the engine's
    /// `nominal_params` decoupling). Fixed-rate codecs scale per parameter
    /// automatically; top-k keeps its *fraction* `k / sim_params` so the
    /// charged bytes stay consistent with the sparsification level the
    /// simulation actually applied (charging an absolute `k` sized for a
    /// small simulated model against a large nominal model would wildly
    /// understate top-k communication energy).
    pub fn charged_message_bytes(&self, sim_params: usize, charged_params: usize) -> u64 {
        match self {
            ModelCodec::TopK { k } if sim_params > 0 && charged_params != sim_params => {
                let kept = (*k).min(sim_params) as u128;
                let scaled = (kept * charged_params as u128 / sim_params as u128) as usize;
                ModelCodec::TopK { k: scaled.max(1) }.message_bytes(charged_params)
            }
            _ => self.message_bytes(charged_params),
        }
    }
}

/// One explicit entry of a [`CompressionPolicy::PerLink`] table: the codec
/// used on the directed link `src → dst`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkCodec {
    /// Sender node id.
    pub src: u32,
    /// Receiver node id.
    pub dst: u32,
    /// Codec applied to every message on this directed link.
    pub codec: ModelCodec,
}

/// One rung of an [`CompressionPolicy::EnergyAdaptive`] tier table: the
/// codec a sender uses while its battery charge fraction is at least
/// `min_charge_fraction`. Tables are evaluated top-down by
/// [`tier_codec`], so entries must be sorted by *descending*
/// `min_charge_fraction`; the last entry is the floor codec used at any
/// charge below every threshold (set its threshold to `0.0`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyTier {
    /// Inclusive lower bound on the sender's charge fraction (0.0–1.0).
    pub min_charge_fraction: f64,
    /// Codec used while charge is at or above the bound.
    pub codec: ModelCodec,
}

/// Picks the codec for a sender at `charge_fraction` from a tier table
/// sorted by descending [`EnergyTier::min_charge_fraction`]: the first
/// tier whose threshold the charge meets wins, falling back to the last
/// (lowest) tier. A sender with no battery reports charge `1.0` and
/// always resolves the top tier.
pub fn tier_codec(tiers: &[EnergyTier], charge_fraction: f64) -> ModelCodec {
    for tier in tiers {
        if charge_fraction >= tier.min_charge_fraction {
            return tier.codec;
        }
    }
    tiers
        .last()
        .map(|t| t.codec)
        .unwrap_or(ModelCodec::DenseF32)
}

/// Top-k budget for a link that has fired `fires` times in
/// `elapsed_rounds` scheduled rounds under
/// [`CompressionPolicy::RarityAdaptive`]: a link live in roughly `1/m`
/// of rounds gets `m`× the base budget, clamped to `max_k`. Both counts
/// include the current round (the resolver bumps `fires` *before*
/// asking), so a link that fires every round always resolves `base_k`
/// and a never-before-seen link on round `r` gets the full `r`× boost.
pub fn rarity_k(base_k: usize, max_k: usize, elapsed_rounds: u64, fires: u64) -> usize {
    let boost = (elapsed_rounds / fires.max(1)).max(1) as usize;
    base_k.saturating_mul(boost).min(max_k.max(base_k))
}

/// How the codec for each directed link is chosen, resolved by the
/// executor once per round per effective edge. See the module docs for
/// the policy layer's contract; [`CompressionPolicy::Uniform`] is the
/// bit-exact legacy path equivalent to the old global
/// `SimulationConfig::codec` scalar.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CompressionPolicy {
    /// Every link uses the same codec every round (legacy behaviour).
    Uniform(ModelCodec),
    /// Explicit per-directed-link table; links absent from the table use
    /// `default`.
    PerLink {
        /// Codec for links not listed in `links`.
        default: ModelCodec,
        /// Explicit directed-link overrides.
        links: Vec<LinkCodec>,
    },
    /// Top-k with a budget that grows on rarely-fired links: a link live
    /// in `1/m` of scheduled rounds sends `min(m · base_k, max_k)`
    /// coordinates (see [`rarity_k`]).
    RarityAdaptive {
        /// Budget for a link that fires every round.
        base_k: usize,
        /// Hard ceiling on any link's budget.
        max_k: usize,
    },
    /// DEAL-style decremental tiers: the sender's battery charge
    /// fraction picks the codec from a descending tier table (see
    /// [`tier_codec`] and [`EnergyTier`]).
    EnergyAdaptive {
        /// Tier table, sorted by descending `min_charge_fraction`.
        tiers: Vec<EnergyTier>,
    },
}

impl Default for CompressionPolicy {
    fn default() -> Self {
        CompressionPolicy::Uniform(ModelCodec::DenseF32)
    }
}

impl CompressionPolicy {
    /// The single codec shared by every link, when the policy is
    /// [`Uniform`](CompressionPolicy::Uniform) — the executor's bit-exact
    /// legacy fast path. `None` for every adaptive policy.
    pub fn uniform(&self) -> Option<ModelCodec> {
        match self {
            CompressionPolicy::Uniform(codec) => Some(*codec),
            _ => None,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CompressionPolicy::Uniform(_) => "uniform",
            CompressionPolicy::PerLink { .. } => "per-link",
            CompressionPolicy::RarityAdaptive { .. } => "rarity-adaptive",
            CompressionPolicy::EnergyAdaptive { .. } => "energy-adaptive",
        }
    }

    /// The paper-default DEAL-style decremental tier table: dense while
    /// comfortably charged, then u16 → u8 → top-`k` as the battery
    /// drains past 75% / 50% / 25% of capacity.
    pub fn deal_tiers(k: usize) -> Self {
        CompressionPolicy::EnergyAdaptive {
            tiers: vec![
                EnergyTier {
                    min_charge_fraction: 0.75,
                    codec: ModelCodec::DenseF32,
                },
                EnergyTier {
                    min_charge_fraction: 0.5,
                    codec: ModelCodec::QuantizedU16,
                },
                EnergyTier {
                    min_charge_fraction: 0.25,
                    codec: ModelCodec::QuantizedU8,
                },
                EnergyTier {
                    min_charge_fraction: 0.0,
                    codec: ModelCodec::TopK { k },
                },
            ],
        }
    }
}

/// Default per-receiver replica cap for [`ErrorFeedbackState`]: how many
/// distinct in-links a receiver keeps replicas for before the
/// stalest one is evicted. Static topologies at the paper's degrees
/// (6–10) and per-round subsets of them never touch the cap; schedules
/// that cycle through many distinct graphs are bounded by it at
/// `nodes × cap` replica vectors total.
pub const DEFAULT_REPLICA_CAP: usize = 16;

/// One receiver's replica links, sorted by sender id.
///
/// The map is bounded: inserting beyond the cap evicts the link with the
/// oldest delivery round (ties broken by smallest sender id — fully
/// deterministic, independent of insertion order) and *recycles its
/// buffer* for the incoming link, so a schedule cycling through many
/// graphs neither grows replica memory without bound (the pre-cap bug)
/// nor re-allocates a model-sized vector per eviction.
#[derive(Debug, Clone, Default)]
pub struct LinkMap {
    /// Sorted by `sender`.
    entries: Vec<LinkEntry>,
    /// Evicted-link counter (staleness telemetry).
    evictions: u64,
}

#[derive(Debug, Clone)]
struct LinkEntry {
    sender: u32,
    /// Round of the most recent delivery over this link.
    last_delivery: u64,
    replica: Vec<f32>,
}

impl LinkMap {
    /// Number of live links.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no link has delivered yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The replica for `sender`, if that link is live.
    pub fn get(&self, sender: u32) -> Option<&[f32]> {
        self.entries
            .binary_search_by_key(&sender, |e| e.sender)
            .ok()
            .map(|i| self.entries[i].replica.as_slice())
    }

    /// Round of the most recent delivery for `sender`'s link.
    pub fn last_delivery(&self, sender: u32) -> Option<u64> {
        self.entries
            .binary_search_by_key(&sender, |e| e.sender)
            .ok()
            .map(|i| self.entries[i].last_delivery)
    }

    /// Links evicted from this receiver so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Get-or-insert the replica for `sender`, stamping `round` as its
    /// latest delivery. A cold link (fresh, or re-established after
    /// eviction) is initialized by `init` before being returned; when the
    /// map is at `cap`, the entry with the oldest delivery round is
    /// evicted first and its allocation reused.
    pub fn replica_mut(
        &mut self,
        sender: u32,
        round: u64,
        cap: usize,
        init: impl FnOnce(&mut Vec<f32>),
    ) -> &mut Vec<f32> {
        debug_assert!(cap > 0, "replica cap must be positive");
        match self.entries.binary_search_by_key(&sender, |e| e.sender) {
            Ok(i) => {
                self.entries[i].last_delivery = round;
                &mut self.entries[i].replica
            }
            Err(_) => {
                let mut replica = if self.entries.len() >= cap {
                    // Evict the stalest link: oldest delivery round,
                    // smallest sender on ties. The sorted scan makes the
                    // choice deterministic for any history.
                    let stalest = self
                        .entries
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| (e.last_delivery, e.sender))
                        .map(|(i, _)| i)
                        // lint:allow(no_panic, "provably infallible: this branch requires entries.len() >= cap with cap > 0")
                        .expect("cap > 0 so the map is non-empty");
                    self.evictions += 1;
                    self.entries.remove(stalest).replica
                } else {
                    Vec::new()
                };
                init(&mut replica);
                // the eviction above may have shifted positions; re-derive
                let pos = self
                    .entries
                    .binary_search_by_key(&sender, |e| e.sender)
                    .expect_err("sender was absent");
                self.entries.insert(
                    pos,
                    LinkEntry {
                        sender,
                        last_delivery: round,
                        replica,
                    },
                );
                &mut self.entries[pos].replica
            }
        }
    }
}

/// Per-directed-link error-feedback accumulators (CHOCO-SGD style; see
/// the module docs).
///
/// Each active link `src → dst` owns one replica vector `x̂_{src→dst}`;
/// the accumulated residual the link will compress next is
/// `x_src − x̂_{src→dst}`. The state is stored receiver-indexed
/// (`incoming[dst]` is a [`LinkMap`] over senders) so the
/// receiver-parallel aggregation loop mutates disjoint link sets without
/// locks. Links are allocated lazily the first round their directed edge
/// delivers — static topology rows, per-round pairwise matchings,
/// scheduled time-varying graphs, and async-gossip activations alike —
/// and persist unchanged across rounds in which the link stays silent, so
/// deferred discrepancies are merged correctly under time-varying mixing.
///
/// Replica memory is **bounded**: each receiver keeps at most
/// [`cap`](ErrorFeedbackState::cap) links ([`DEFAULT_REPLICA_CAP`] unless
/// configured), evicting the stalest (oldest last delivery) when a new
/// link would exceed it. An evicted link restarts cold on its next
/// delivery — its replica re-seeds from the receiver's own pre-mixing
/// model, exactly like a first contact — which preserves the
/// masked-substitution aggregation semantics; only the link's deferred
/// residual is forgotten.
#[derive(Debug, Clone)]
pub struct ErrorFeedbackState {
    beta: f32,
    cap: usize,
    incoming: Vec<LinkMap>,
}

impl ErrorFeedbackState {
    /// Creates empty feedback state for `n` nodes with replica step
    /// `beta ∈ (0, 1]` (`1.0` = full CHOCO-SGD error feedback; smaller
    /// values damp the replica tracking) and the default per-receiver
    /// replica cap ([`DEFAULT_REPLICA_CAP`]).
    ///
    /// # Panics
    /// Panics if `beta` is not a finite value in `(0, 1]`.
    pub fn new(n: usize, beta: f32) -> Self {
        Self::with_cap(n, beta, DEFAULT_REPLICA_CAP)
    }

    /// Creates empty feedback state with an explicit per-receiver replica
    /// cap (total replica memory is bounded by `n × cap` model vectors).
    ///
    /// # Panics
    /// Panics if `beta` is not a finite value in `(0, 1]` or `cap == 0`.
    pub fn with_cap(n: usize, beta: f32, cap: usize) -> Self {
        assert!(
            beta.is_finite() && beta > 0.0 && beta <= 1.0,
            "feedback beta must lie in (0, 1], got {beta}"
        );
        assert!(cap > 0, "replica cap must be positive");
        Self {
            beta,
            cap,
            incoming: vec![LinkMap::default(); n],
        }
    }

    /// The replica step / residual retention factor β.
    pub fn beta(&self) -> f32 {
        self.beta
    }

    /// The per-receiver replica cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Number of directed links currently holding a replica (bounded by
    /// `nodes × cap`).
    pub fn active_links(&self) -> usize {
        self.incoming.iter().map(LinkMap::len).sum()
    }

    /// Total links evicted so far across all receivers.
    pub fn total_evictions(&self) -> u64 {
        self.incoming.iter().map(LinkMap::evictions).sum()
    }

    /// The replica of directed link `src → dst` (the receiver's current
    /// estimate of the sender's model), if the link is live.
    pub fn replica(&self, src: usize, dst: usize) -> Option<&[f32]> {
        self.incoming.get(dst).and_then(|m| m.get(src as u32))
    }

    /// Mutable receiver-indexed link maps (the aggregation loop zips over
    /// these in parallel with the per-receiver output buffers).
    pub(crate) fn incoming_mut(&mut self) -> &mut [LinkMap] {
        &mut self.incoming
    }
}

/// Decode error taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Frame shorter than the fixed header.
    Truncated,
    /// Magic marker mismatch.
    BadMagic,
    /// Unknown codec discriminant.
    UnknownCodec,
    /// Payload length disagrees with the header.
    LengthMismatch,
    /// A top-k index points outside the declared parameter count, or the
    /// index list is not strictly ascending (duplicates would double-apply
    /// in the aggregation scatter).
    IndexOutOfRange,
    /// Checksum mismatch (corrupted payload).
    BadChecksum,
}

/// The frame checksum `c ← rotl(c, 5) ⊕ b` over `payload` (see the module
/// docs): whole 32-byte blocks XOR together as four 64-bit lanes, then the
/// accumulated block and the tail go through the recurrence once.
fn checksum_of(payload: &[u8]) -> u32 {
    let (blocks, tail) = payload.as_chunks::<32>();
    let mut lanes = [0u64; 4];
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks().0) {
            *lane ^= u64::from_le_bytes(*word);
        }
    }
    lanes
        .iter()
        .flat_map(|lane| lane.to_le_bytes())
        .chain(tail.iter().copied())
        .fold(0u32, |c, b| c.rotate_left(5) ^ b as u32)
}

/// Reusable top-k index scratch for [`encode_message_with`] (every other
/// section is written straight into the frame). Capacity is retained
/// across calls, so a long-lived scratch makes lossy-codec encoding
/// allocation-free at steady state.
#[derive(Debug, Clone, Default)]
pub struct EncodeScratch {
    indices: Vec<u32>,
}

/// Appends 4-byte `words` to `buf`: one `resize`, then one pass of
/// whole-word stores.
fn put_words(buf: &mut Vec<u8>, words: impl ExactSizeIterator<Item = [u8; 4]>) {
    let start = buf.len();
    buf.resize(start + 4 * words.len(), 0);
    let (slots, _) = buf[start..].as_chunks_mut::<4>();
    for (slot, word) in slots.iter_mut().zip(words) {
        *slot = word;
    }
}

/// Encodes a flat model into a framed message under `codec`, writing the
/// frame into `buf`; the one codec intermediate (top-k indices) goes
/// through `scratch`. With both buffers reused across calls, encoding is
/// allocation-free at steady state for every codec — the path the perf
/// gate's codec roundtrip scenarios pin.
pub fn encode_message_with(
    codec: ModelCodec,
    sender: u32,
    round: u32,
    params: &[f32],
    buf: &mut Vec<u8>,
    scratch: &mut EncodeScratch,
) {
    /// The quantized payload: fitted `min`, `scale`, then `W`-byte codes
    /// quantised where they travel.
    fn put_quantized<const W: usize>(buf: &mut Vec<u8>, params: &[f32]) {
        let p = affine_params(params, 1 << (8 * W));
        buf.extend_from_slice(&p.min.to_le_bytes());
        buf.extend_from_slice(&p.scale.to_le_bytes());
        quantize_le::<W>(params, p, buf);
    }

    buf.clear();
    buf.reserve(codec.message_bytes(params.len()) as usize);
    for word in [MAGIC, codec.id(), sender, round, params.len() as u32] {
        buf.extend_from_slice(&word.to_be_bytes());
    }
    match codec {
        ModelCodec::DenseF32 => put_words(buf, params.iter().map(|v| v.to_le_bytes())),
        ModelCodec::QuantizedU8 => put_quantized::<1>(buf, params),
        ModelCodec::QuantizedU16 => put_quantized::<2>(buf, params),
        ModelCodec::TopK { k } => {
            let indices = &mut scratch.indices;
            top_k_indices_into(params, k, indices);
            buf.extend_from_slice(&(indices.len() as u32).to_be_bytes());
            put_words(buf, indices.iter().map(|i| i.to_le_bytes()));
            put_words(
                buf,
                indices.iter().map(|&i| params[i as usize].to_le_bytes()),
            );
        }
    }
    let checksum = checksum_of(&buf[PAYLOAD_START..]);
    buf.extend_from_slice(&checksum.to_be_bytes());
    debug_assert_eq!(buf.len() as u64, codec.message_bytes(params.len()));
}

/// Byte-slice cursor used by [`decode_frame_into`]: splits fixed words off
/// the front, `None` once fewer than four bytes remain.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn word(&mut self) -> Option<[u8; 4]> {
        let (word, rest) = self.0.split_first_chunk()?;
        self.0 = rest;
        Some(*word)
    }
}

/// The whole 4-byte words of `bytes`, in order.
fn words(bytes: &[u8]) -> impl Iterator<Item = [u8; 4]> + '_ {
    bytes.as_chunks().0.iter().copied()
}

/// Reusable decode-side payload buffers for [`decode_frame_into`].
/// Capacity is retained across calls, so a long-lived scratch makes
/// frame decoding allocation-free at steady state.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    pub(crate) dense: Vec<f32>,
    pub(crate) indices: Vec<u32>,
    pub(crate) values: Vec<f32>,
}

/// A decoded payload: a quantized frame's codes where they lie in the
/// frame (`'f`), any other payload in a [`DecodeScratch`]'s buffers (`'s`).
#[derive(Debug, PartialEq)]
pub enum PayloadRef<'f, 's> {
    /// A full parameter vector.
    Dense(&'s [f32]),
    /// Top-k sparsified parameters: ascending indices with their values.
    Sparse {
        /// Ascending parameter indices present in the message.
        indices: &'s [u32],
        /// Parameter values at `indices`.
        values: &'s [f32],
    },
    /// Affine codes read in place, exactly `param_count` of them: the
    /// receiver reconstructs them where it uses them
    /// ([`QuantizedRef::fold_into`], [`QuantizedRef::dequantize_into`]).
    Quantized(QuantizedRef<'f>),
}

/// Decoded message header + borrowed payload.
#[derive(Debug, PartialEq)]
pub struct DecodedMessageRef<'f, 's> {
    /// Sender node id.
    pub sender: u32,
    /// Round the model was produced in.
    pub round: u32,
    /// Dense parameter count of the original model.
    pub param_count: usize,
    /// The model as sent, borrowing the frame or `scratch`.
    pub payload: PayloadRef<'f, 's>,
}

/// Decodes a frame into reusable caller buffers: a dense or top-k payload
/// lands in `scratch` (cleared first, capacity retained), a quantized one
/// is a view of the frame's code section, and the returned message
/// borrows them. With a long-lived scratch this path performs no heap
/// allocation, which is what keeps the perf gate's codec roundtrip
/// scenarios at a zero alloc proxy.
///
/// No input panics it: every read splits a checked chunk off the slice,
/// and the checksum and every section length are checked against the
/// header before a byte of the section is copied or viewed, so `scratch`
/// never grows past `4 × frame.len()` bytes and a view holds exactly
/// `count` whole codes.
pub fn decode_frame_into<'f, 's>(
    frame: &'f [u8],
    scratch: &'s mut DecodeScratch,
) -> Result<DecodedMessageRef<'f, 's>, DecodeError> {
    let mut r = Reader(frame);
    let mut header = [0u32; PAYLOAD_START / 4];
    for word in &mut header {
        *word = u32::from_be_bytes(r.word().ok_or(DecodeError::Truncated)?);
    }
    let [magic, codec_id, sender, round, count] = header;
    let (payload, checksum) = r.0.split_last_chunk().ok_or(DecodeError::Truncated)?;
    if magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    // Verify the checksum *before* parsing: corruption then
    // deterministically reports `BadChecksum`, and corrupt payloads are
    // never allocated or dequantized.
    if checksum_of(payload) != u32::from_be_bytes(*checksum) {
        return Err(DecodeError::BadChecksum);
    }
    let count = count as usize;
    // `fixed` payload bytes plus `width` per entry, `None` on overflow
    let sized = |fixed: usize, n: usize, width: usize| n.checked_mul(width)?.checked_add(fixed);
    let payload = match codec_id {
        0 => {
            if sized(0, count, 4) != Some(payload.len()) {
                return Err(DecodeError::LengthMismatch);
            }
            scratch.dense.clear();
            scratch.dense.extend(words(payload).map(f32::from_le_bytes));
            PayloadRef::Dense(&scratch.dense)
        }
        1 | 2 => {
            let width = codec_id as usize;
            if sized(8, count, width) != Some(payload.len()) {
                return Err(DecodeError::LengthMismatch);
            }
            let mut r = Reader(payload);
            let mut field = || r.word().map(f32::from_le_bytes);
            let (Some(min), Some(scale)) = (field(), field()) else {
                return Err(DecodeError::LengthMismatch);
            };
            PayloadRef::Quantized(QuantizedRef {
                params: AffineParams { min, scale },
                wide: width == 2,
                codes: r.0,
            })
        }
        3 => {
            let mut r = Reader(payload);
            let k = r.word().ok_or(DecodeError::LengthMismatch)?;
            let k = u32::from_be_bytes(k) as usize;
            if sized(0, k, 8) != Some(r.0.len()) {
                return Err(DecodeError::LengthMismatch);
            }
            let (indices, values) = r.0.split_at(r.0.len() / 2);
            scratch.indices.clear();
            scratch
                .indices
                .extend(words(indices).map(u32::from_le_bytes));
            // strictly ascending: rejects out-of-range *and* duplicate
            // indices, which would double-apply in the scatter kernels
            let ascending = scratch.indices.windows(2).all(|w| w[0] < w[1]);
            if !ascending || scratch.indices.last().is_some_and(|&i| i as usize >= count) {
                return Err(DecodeError::IndexOutOfRange);
            }
            scratch.values.clear();
            scratch.values.extend(words(values).map(f32::from_le_bytes));
            PayloadRef::Sparse {
                indices: &scratch.indices,
                values: &scratch.values,
            }
        }
        _ => return Err(DecodeError::UnknownCodec),
    };
    Ok(DecodedMessageRef {
        sender,
        round,
        param_count: count,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use skiptrain_linalg::compress::{quantize_u16_into, quantize_u8_into};

    const ALL_CODECS: [ModelCodec; 4] = [
        ModelCodec::DenseF32,
        ModelCodec::QuantizedU8,
        ModelCodec::QuantizedU16,
        ModelCodec::TopK { k: 3 },
    ];

    /// One frame through the scratch encoder, fresh buffers.
    fn encode(codec: ModelCodec, sender: u32, round: u32, params: &[f32]) -> Vec<u8> {
        let mut frame = Vec::new();
        let mut scratch = EncodeScratch::default();
        encode_message_with(codec, sender, round, params, &mut frame, &mut scratch);
        frame
    }

    /// The error the scratch decoder reports for `frame`.
    fn decode_err(frame: &[u8]) -> DecodeError {
        decode_frame_into(frame, &mut DecodeScratch::default()).unwrap_err()
    }

    // ---- the per-byte and per-element loops the bulk forms replaced, ----
    // ---- kept as oracles --------------------------------------------------

    /// The checksum as its recurrence, one byte at a time.
    fn checksum_ref(payload: &[u8]) -> u32 {
        let mut c = 0u32;
        for &b in payload {
            c = c.rotate_left(5) ^ b as u32;
        }
        c
    }

    /// The frame written one element at a time.
    fn encode_ref(codec: ModelCodec, sender: u32, round: u32, params: &[f32]) -> Vec<u8> {
        fn put_u32(buf: &mut Vec<u8>, v: u32) {
            buf.extend_from_slice(&v.to_be_bytes());
        }
        fn put_u32_le(buf: &mut Vec<u8>, v: u32) {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        let mut buf = Vec::new();
        put_u32(&mut buf, MAGIC);
        put_u32(&mut buf, codec.id());
        put_u32(&mut buf, sender);
        put_u32(&mut buf, round);
        put_u32(&mut buf, params.len() as u32);
        let mut codes = Vec::new();
        match codec {
            ModelCodec::DenseF32 => {
                for &p in params {
                    put_u32_le(&mut buf, p.to_bits());
                }
            }
            ModelCodec::QuantizedU8 | ModelCodec::QuantizedU16 => {
                let p = if codec == ModelCodec::QuantizedU8 {
                    quantize_u8_into(params, &mut codes)
                } else {
                    quantize_u16_into(params, &mut codes)
                };
                put_u32_le(&mut buf, p.min.to_bits());
                put_u32_le(&mut buf, p.scale.to_bits());
                for &c in &codes {
                    buf.push(c);
                }
            }
            ModelCodec::TopK { k } => {
                let mut indices = Vec::new();
                top_k_indices_into(params, k, &mut indices);
                put_u32(&mut buf, indices.len() as u32);
                for &i in &indices {
                    put_u32_le(&mut buf, i);
                }
                for &i in &indices {
                    put_u32_le(&mut buf, params[i as usize].to_bits());
                }
            }
        }
        let checksum = checksum_ref(&buf[PAYLOAD_START..]);
        put_u32(&mut buf, checksum);
        buf
    }

    /// What a frame decodes to, floats as bits so NaN payloads compare.
    #[derive(Debug, PartialEq)]
    struct Decoded {
        sender: u32,
        round: u32,
        count: usize,
        dense: Option<Vec<u32>>,
        sparse: Option<(Vec<u32>, Vec<u32>)>,
    }

    fn decoded(frame: &[u8], scratch: &mut DecodeScratch) -> Result<Decoded, DecodeError> {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let msg = decode_frame_into(frame, scratch)?;
        let (dense, sparse) = match msg.payload {
            PayloadRef::Dense(values) => (Some(bits(values)), None),
            PayloadRef::Quantized(codes) => {
                // a view holds exactly `count` whole codes
                let width = 1 + codes.wide as usize;
                assert_eq!(codes.codes.len(), width * msg.param_count);
                let mut values = Vec::new();
                codes.dequantize_into(&mut values);
                (Some(bits(&values)), None)
            }
            PayloadRef::Sparse { indices, values } => {
                (None, Some((indices.to_vec(), bits(values))))
            }
        };
        Ok(Decoded {
            sender: msg.sender,
            round: msg.round,
            count: msg.param_count,
            dense,
            sparse,
        })
    }

    /// The decoder that read one element at a time through an indexing
    /// cursor, with every check it made in the order it made them.
    fn decode_ref(frame: &[u8]) -> Result<Decoded, DecodeError> {
        struct Cursor<'a>(&'a [u8], usize);
        impl Cursor<'_> {
            fn bytes<const N: usize>(&mut self) -> [u8; N] {
                let out = self.0[self.1..self.1 + N].try_into().unwrap();
                self.1 += N;
                out
            }
            fn be(&mut self) -> u32 {
                u32::from_be_bytes(self.bytes())
            }
            fn le(&mut self) -> u32 {
                u32::from_le_bytes(self.bytes())
            }
        }
        if frame.len() < FRAME_OVERHEAD as usize {
            return Err(DecodeError::Truncated);
        }
        let mut r = Cursor(frame, 0);
        if r.be() != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let (codec_id, sender, round, count) = (r.be(), r.be(), r.be(), r.be() as usize);
        let body = &frame[r.1..];
        let payload_len = body.len() - 4;
        let expected = u32::from_be_bytes(body[payload_len..].try_into().unwrap());
        if checksum_ref(&body[..payload_len]) != expected {
            return Err(DecodeError::BadChecksum);
        }
        let (mut dense, mut sparse) = (None, None);
        match codec_id {
            0 => {
                if payload_len as u128 != count as u128 * 4 {
                    return Err(DecodeError::LengthMismatch);
                }
                dense = Some((0..count).map(|_| r.le()).collect());
            }
            1 | 2 => {
                let width = codec_id as u128;
                if payload_len as u128 != 8 + count as u128 * width {
                    return Err(DecodeError::LengthMismatch);
                }
                let p = AffineParams {
                    min: f32::from_bits(r.le()),
                    scale: f32::from_bits(r.le()),
                };
                let code = |r: &mut Cursor| match codec_id {
                    1 => r.bytes::<1>()[0] as u32,
                    _ => u16::from_le_bytes(r.bytes()) as u32,
                };
                dense = Some(
                    (0..count)
                        .map(|_| {
                            skiptrain_linalg::compress::dequantize_one(p, code(&mut r)).to_bits()
                        })
                        .collect(),
                );
            }
            3 => {
                if payload_len < 4 {
                    return Err(DecodeError::LengthMismatch);
                }
                let k = r.be() as usize;
                if payload_len as u128 != 4 + 8 * k as u128 {
                    return Err(DecodeError::LengthMismatch);
                }
                let mut indices: Vec<u32> = Vec::new();
                for _ in 0..k {
                    let idx = r.le();
                    if idx as usize >= count || indices.last().is_some_and(|&prev| prev >= idx) {
                        return Err(DecodeError::IndexOutOfRange);
                    }
                    indices.push(idx);
                }
                sparse = Some((indices, (0..k).map(|_| r.le()).collect()));
            }
            _ => return Err(DecodeError::UnknownCodec),
        }
        Ok(Decoded {
            sender,
            round,
            count,
            dense,
            sparse,
        })
    }

    /// `frame` decodes to what the element-at-a-time decoder made of it,
    /// error for error, and a fresh scratch stays within `4 × frame.len()`
    /// bytes however the header lies.
    fn check_decode_against_reference(frame: &[u8]) -> Result<Decoded, DecodeError> {
        let mut scratch = DecodeScratch::default();
        let got = decoded(frame, &mut scratch);
        assert_eq!(got, decode_ref(frame), "{frame:?}");
        // 4-byte elements: `held` of them are 4 × `held` bytes
        let held =
            scratch.dense.capacity() + scratch.indices.capacity() + scratch.values.capacity();
        assert!(held <= frame.len(), "{held} elements for {frame:?}");
        got
    }

    /// FNV-1a, as the benchmark hashes its digests.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The `adaptive_fleet` model size, from an integer stream (no libm).
    fn fleet_model() -> Vec<f32> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..1042)
            .map(|_| {
                state = derive_seed(state, 1);
                ((state >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * 0.37
            })
            .collect()
    }

    /// CIFAR-10 model size from Table 1, as `alloc_pins` builds it.
    fn table1_params() -> Vec<f32> {
        (0..89_834).map(|i| ((i as f32) * 0.11).sin()).collect()
    }

    /// Sampled words as floats covering NaN, ±∞, ±0, subnormals, ±MAX and
    /// raw bit patterns next to ordinary values in `[−8, 8)`.
    fn hostile(words: &[u32]) -> Vec<f32> {
        words
            .iter()
            .map(|&w| match w % 32 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => 0.0,
                4 => -0.0,
                5 => f32::from_bits((w >> 9 & 0x007F_FFFF) | (w & 0x8000_0000)),
                6 => f32::MAX.copysign(f32::from_bits(w)),
                7 => f32::from_bits(w),
                _ => (w >> 8) as f32 / (1u32 << 20) as f32 - 8.0,
            })
            .collect()
    }

    #[test]
    fn checksum_matches_the_serial_recurrence_at_every_length() {
        let mut state = 7u64;
        let bytes: Vec<u8> = (0..100_003)
            .map(|_| {
                state = derive_seed(state, 3);
                (state >> 56) as u8
            })
            .collect();
        // every block count 0..=6 with every tail, at shifting offsets
        for n in 0..=200 {
            assert_eq!(checksum_of(&bytes[..n]), checksum_ref(&bytes[..n]), "{n}");
            assert_eq!(
                checksum_of(&bytes[n..2 * n]),
                checksum_ref(&bytes[n..2 * n])
            );
        }
        for n in [4_168, 4_169, 65_536, 99_999, 100_003] {
            assert_eq!(checksum_of(&bytes[..n]), checksum_ref(&bytes[..n]), "{n}");
        }
        // the closed form: byte i contributes rotl(b, 5·(n−1−i) mod 32)
        let short = &bytes[..77];
        let closed = short.iter().enumerate().fold(0u32, |c, (i, &b)| {
            c ^ (b as u32).rotate_left((5 * (short.len() - 1 - i) % 32) as u32)
        });
        assert_eq!(checksum_of(short), closed);
    }

    /// Frame hashes **recorded from the parent commit** (`065b94e`), before
    /// any kernel changed: the four codecs over the `adaptive_fleet` model
    /// size and over the paper's Table 1 size, sender 3, round 7, top-k at
    /// the DEAL default `k = P / 64`.
    #[test]
    fn golden_frames_are_byte_identical_to_the_parent_commit() {
        let golden = [
            (
                fleet_model(),
                [
                    (4_192, 0x81f9_03ee_bb2d_bb00),
                    (1_074, 0x35cd_b65f_530d_0ddf),
                    (2_116, 0xe4ab_e0ae_e6bb_f884),
                    (156, 0x2016_aafa_f11a_fc98),
                ],
            ),
            (
                table1_params(),
                [
                    (359_360, 0xb51a_caf3_a482_0877),
                    (89_866, 0xcfa8_4649_fc65_3165),
                    (179_700, 0xff64_ce0a_617f_29d8),
                    (11_252, 0x0e35_aee8_5092_53f5),
                ],
            ),
        ];
        for (model, frames) in golden {
            let codecs = [
                ModelCodec::DenseF32,
                ModelCodec::QuantizedU8,
                ModelCodec::QuantizedU16,
                ModelCodec::TopK {
                    k: model.len() / 64,
                },
            ];
            for (codec, (len, hash)) in codecs.into_iter().zip(frames) {
                let frame = encode(codec, 3, 7, &model);
                assert_eq!(frame.len(), len, "{codec:?}");
                assert_eq!(fnv1a(&frame), hash, "{codec:?} P = {}", model.len());
                assert_eq!(frame, encode_ref(codec, 3, 7, &model), "{codec:?}");
                check_decode_against_reference(&frame).unwrap();
            }
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_short_frame_is_caught() {
        let params = [1.0f32, -2.5, 3.25, 0.0, -4.0];
        for codec in [
            ModelCodec::DenseF32,
            ModelCodec::QuantizedU8,
            ModelCodec::QuantizedU16,
            ModelCodec::TopK { k: 2 },
        ] {
            let clean = encode(codec, 3, 7, &params);
            let intact = check_decode_against_reference(&clean).unwrap();
            for bit in 0..clean.len() * 8 {
                let mut frame = clean.clone();
                frame[bit / 8] ^= 1 << (bit % 8);
                let got = check_decode_against_reference(&frame);
                if bit / 8 >= PAYLOAD_START {
                    // payload and trailer: one flipped bit moves exactly
                    // one bit of the checksum, or is one bit of it
                    assert_eq!(got, Err(DecodeError::BadChecksum), "{codec:?} bit {bit}");
                } else {
                    // the header is not summed: a flip there is a typed
                    // error or a visibly different message, never the
                    // intact one
                    assert_ne!(got.as_ref(), Ok(&intact), "{codec:?} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn tier_codec_walks_the_table_top_down() {
        let CompressionPolicy::EnergyAdaptive { tiers } = CompressionPolicy::deal_tiers(32) else {
            panic!("deal_tiers is energy-adaptive");
        };
        assert_eq!(tier_codec(&tiers, 1.0), ModelCodec::DenseF32);
        assert_eq!(tier_codec(&tiers, 0.75), ModelCodec::DenseF32);
        assert_eq!(tier_codec(&tiers, 0.74), ModelCodec::QuantizedU16);
        assert_eq!(tier_codec(&tiers, 0.5), ModelCodec::QuantizedU16);
        assert_eq!(tier_codec(&tiers, 0.3), ModelCodec::QuantizedU8);
        assert_eq!(tier_codec(&tiers, 0.1), ModelCodec::TopK { k: 32 });
        assert_eq!(tier_codec(&tiers, 0.0), ModelCodec::TopK { k: 32 });
        // A table whose lowest threshold is above the charge still
        // resolves its last entry (the floor codec).
        let no_floor = [EnergyTier {
            min_charge_fraction: 0.9,
            codec: ModelCodec::QuantizedU8,
        }];
        assert_eq!(tier_codec(&no_floor, 0.2), ModelCodec::QuantizedU8);
        assert_eq!(tier_codec(&[], 0.5), ModelCodec::DenseF32);
    }

    #[test]
    fn rarity_k_boosts_rare_links_and_clamps() {
        // Fires every round: no boost.
        assert_eq!(rarity_k(16, 256, 10, 10), 16);
        // Fires every 4th round: 4x.
        assert_eq!(rarity_k(16, 256, 40, 10), 64);
        // Very rare link clamps at max_k.
        assert_eq!(rarity_k(16, 256, 1000, 1), 256);
        // Zero fires is treated as one (current round counts).
        assert_eq!(rarity_k(16, 256, 8, 0), 128);
        // max_k below base_k never shrinks the base budget.
        assert_eq!(rarity_k(16, 8, 100, 1), 16);
    }

    #[test]
    fn uniform_policy_exposes_its_codec() {
        let p = CompressionPolicy::Uniform(ModelCodec::TopK { k: 5 });
        assert_eq!(p.uniform(), Some(ModelCodec::TopK { k: 5 }));
        assert_eq!(p.name(), "uniform");
        for adaptive in [
            CompressionPolicy::PerLink {
                default: ModelCodec::DenseF32,
                links: vec![],
            },
            CompressionPolicy::RarityAdaptive {
                base_k: 8,
                max_k: 64,
            },
            CompressionPolicy::deal_tiers(8),
        ] {
            assert_eq!(adaptive.uniform(), None);
        }
        assert_eq!(
            CompressionPolicy::default(),
            CompressionPolicy::Uniform(ModelCodec::DenseF32)
        );
    }

    #[test]
    fn compression_policy_serde_roundtrips() {
        let policies = [
            CompressionPolicy::Uniform(ModelCodec::QuantizedU16),
            CompressionPolicy::PerLink {
                default: ModelCodec::DenseF32,
                links: vec![LinkCodec {
                    src: 0,
                    dst: 3,
                    codec: ModelCodec::TopK { k: 7 },
                }],
            },
            CompressionPolicy::RarityAdaptive {
                base_k: 16,
                max_k: 128,
            },
            CompressionPolicy::deal_tiers(64),
        ];
        for p in policies {
            let json = serde_json::to_string(&p).unwrap();
            let back: CompressionPolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn roundtrip_preserves_bits() {
        let params = vec![1.5f32, -0.25, f32::MIN_POSITIVE, 0.0, 1e30];
        let frame = encode(ModelCodec::DenseF32, 7, 42, &params);
        let mut scratch = DecodeScratch::default();
        let decoded = decode_frame_into(&frame, &mut scratch).unwrap();
        assert_eq!(decoded.sender, 7);
        assert_eq!(decoded.round, 42);
        assert_eq!(decoded.payload, PayloadRef::Dense(&params));
    }

    #[test]
    fn empty_model_roundtrips() {
        let frame = encode(ModelCodec::DenseF32, 0, 0, &[]);
        let mut scratch = DecodeScratch::default();
        let decoded = decode_frame_into(&frame, &mut scratch).unwrap();
        assert_eq!(decoded.payload, PayloadRef::Dense(&[]));
    }

    #[test]
    fn frame_lengths_match_message_bytes() {
        let params: Vec<f32> = (0..37).map(|i| (i as f32).cos()).collect();
        for codec in ALL_CODECS {
            let frame = encode(codec, 1, 2, &params);
            assert_eq!(
                frame.len() as u64,
                codec.message_bytes(params.len()),
                "{codec:?}"
            );
        }
        assert_eq!(
            ModelCodec::DenseF32.message_bytes(100),
            skiptrain_energy::comm::model_message_bytes(100),
            "dense wire size must match the energy crate's analytic helper"
        );
        assert_eq!(FRAME_OVERHEAD, skiptrain_energy::comm::FRAME_OVERHEAD_BYTES);
    }

    #[test]
    fn top_k_message_bytes_clamps_k() {
        assert_eq!(
            ModelCodec::TopK { k: 1000 }.message_bytes(10),
            ModelCodec::TopK { k: 10 }.message_bytes(10)
        );
    }

    #[test]
    fn charged_bytes_scale_top_k_fraction_to_nominal_model() {
        // keeping 50% of a 1,000-param simulated model must charge 50% of
        // the nominal model, not an absolute 500 params
        let codec = ModelCodec::TopK { k: 500 };
        assert_eq!(
            codec.charged_message_bytes(1000, 90_000),
            ModelCodec::TopK { k: 45_000 }.message_bytes(90_000)
        );
        // same scale → identity
        assert_eq!(
            codec.charged_message_bytes(1000, 1000),
            codec.message_bytes(1000)
        );
        // fixed-rate codecs are ratio-preserving already
        assert_eq!(
            ModelCodec::QuantizedU8.charged_message_bytes(1000, 90_000),
            ModelCodec::QuantizedU8.message_bytes(90_000)
        );
        // a tiny fraction never rounds to zero kept parameters
        assert_eq!(
            ModelCodec::TopK { k: 1 }.charged_message_bytes(1_000_000, 10),
            ModelCodec::TopK { k: 1 }.message_bytes(10)
        );
    }

    #[test]
    fn quantized_decode_error_is_bounded() {
        let params: Vec<f32> = (0..512).map(|i| (i as f32 * 0.11).sin() * 2.0).collect();
        let frame = encode(ModelCodec::QuantizedU8, 0, 0, &params);
        let mut scratch = DecodeScratch::default();
        let decoded = decode_frame_into(&frame, &mut scratch).unwrap();
        let PayloadRef::Quantized(codes) = decoded.payload else {
            panic!("quantized frames decode to a view of their codes");
        };
        let mut decoded = Vec::new();
        codes.dequantize_into(&mut decoded);
        let step = (4.0f32) / 255.0; // range [-2, 2] over 255 steps
        for (a, b) in params.iter().zip(&decoded) {
            assert!(
                (a - b).abs() <= step,
                "error {} > step {step}",
                (a - b).abs()
            );
        }
    }

    #[test]
    fn top_k_payload_is_sorted_and_maximal() {
        let params = [0.1f32, -9.0, 0.2, 5.0, -0.3];
        let frame = encode(ModelCodec::TopK { k: 2 }, 0, 0, &params);
        let mut scratch = DecodeScratch::default();
        let msg = decode_frame_into(&frame, &mut scratch).unwrap();
        assert_eq!(msg.param_count, 5);
        match msg.payload {
            PayloadRef::Sparse { indices, values } => {
                assert_eq!(indices, [1, 3]);
                assert_eq!(values, [-9.0, 5.0]);
            }
            other => panic!("expected sparse payload, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_detected() {
        // checksum is verified before parsing, so a flipped payload byte
        // reports BadChecksum deterministically for every codec
        for codec in ALL_CODECS {
            let mut bytes = encode(codec, 1, 2, &[1.0, 2.0, 3.0, -4.0]);
            let mid = FRAME_OVERHEAD as usize / 2 + 12; // inside the payload
            bytes[mid] ^= 0xFF;
            assert_eq!(decode_err(&bytes), DecodeError::BadChecksum, "{codec:?}");
        }
    }

    #[test]
    fn truncation_is_detected() {
        // the quantized frames decode to a view, which is never built from
        // a frame that fails any of these checks
        for codec in [
            ModelCodec::DenseF32,
            ModelCodec::QuantizedU8,
            ModelCodec::QuantizedU16,
        ] {
            let frame = encode(codec, 1, 2, &[1.0]);
            assert_eq!(decode_err(&frame[..10]), DecodeError::Truncated);
            // clipping shifts payload bytes into the checksum slot, which the
            // up-front checksum verification catches before any length logic
            assert_eq!(
                decode_err(&frame[..frame.len() - 4]),
                DecodeError::BadChecksum,
                "{codec:?}"
            );
            // a length lie with a *valid* checksum is what LengthMismatch is for
            let lied = retamper(frame, |bytes| bytes[19] = 2); // count 1 -> 2
            assert_eq!(decode_err(&lied), DecodeError::LengthMismatch, "{codec:?}");
        }
    }

    #[test]
    fn bad_magic_and_unknown_codec_are_detected() {
        let frame = encode(ModelCodec::DenseF32, 1, 2, &[1.0]);
        let mut bytes = frame.clone();
        bytes[0] = 0;
        assert_eq!(decode_err(&bytes), DecodeError::BadMagic);
        let mut bytes = frame;
        bytes[7] = 99; // codec discriminant (big-endian u32 at offset 4)
        assert_eq!(decode_err(&bytes), DecodeError::UnknownCodec);
    }

    /// Tampers with a frame's payload and rewrites a valid trailing
    /// checksum, so decode exercises the semantic checks behind it.
    fn retamper(mut bytes: Vec<u8>, patch: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let payload_end = bytes.len() - 4;
        patch(&mut bytes);
        let checksum = checksum_of(&bytes[20..payload_end]);
        bytes[payload_end..].copy_from_slice(&checksum.to_be_bytes());
        bytes
    }

    #[test]
    fn out_of_range_sparse_index_is_rejected() {
        let params = [1.0f32, 2.0, 3.0];
        let frame = encode(ModelCodec::TopK { k: 2 }, 0, 0, &params);
        // first index is at header 20 + k field 4 = offset 24, LE
        let bad = retamper(frame, |bytes| bytes[24] = 200);
        assert_eq!(decode_err(&bad), DecodeError::IndexOutOfRange);
    }

    #[test]
    fn duplicate_sparse_indices_are_rejected() {
        let params = [5.0f32, 4.0, 3.0];
        let frame = encode(ModelCodec::TopK { k: 2 }, 0, 0, &params);
        // encoded indices are [0, 1]; duplicate the first (offsets 24, 28)
        let dup = retamper(frame, |bytes| bytes[28] = bytes[24]);
        assert_eq!(decode_err(&dup), DecodeError::IndexOutOfRange);
    }

    #[test]
    fn feedback_state_allocates_links_lazily() {
        let mut fb = ErrorFeedbackState::new(4, 1.0);
        assert_eq!(fb.active_links(), 0);
        assert!(fb.replica(0, 1).is_none());
        fb.incoming_mut()[1].replica_mut(0, 0, DEFAULT_REPLICA_CAP, |r| {
            r.extend_from_slice(&[0.5, -0.5]);
        });
        assert_eq!(fb.active_links(), 1);
        assert_eq!(fb.replica(0, 1), Some(&[0.5, -0.5][..]));
        assert!(fb.replica(1, 0).is_none(), "links are directed");
        assert_eq!(fb.beta(), 1.0);
        assert_eq!(fb.cap(), DEFAULT_REPLICA_CAP);
    }

    #[test]
    #[should_panic(expected = "feedback beta")]
    fn feedback_state_rejects_out_of_range_beta() {
        let _ = ErrorFeedbackState::new(2, 1.5);
    }

    #[test]
    #[should_panic(expected = "replica cap")]
    fn feedback_state_rejects_zero_cap() {
        let _ = ErrorFeedbackState::with_cap(2, 1.0, 0);
    }

    #[test]
    fn link_map_caps_and_evicts_the_stalest_link() {
        let mut m = LinkMap::default();
        // deliveries: sender 5 @ round 0, sender 2 @ round 1, sender 9 @ round 2
        for (round, sender) in [(0u64, 5u32), (1, 2), (2, 9)] {
            m.replica_mut(sender, round, 3, |r| {
                r.clear();
                r.push(sender as f32);
            });
        }
        assert_eq!(m.len(), 3);
        assert_eq!(m.evictions(), 0);
        // refresh sender 5 at round 3: it is no longer the stalest
        m.replica_mut(5, 3, 3, |_| panic!("live link must not re-init"));
        // a fourth sender evicts sender 2 (oldest delivery, round 1)
        m.replica_mut(7, 4, 3, |r| {
            r.clear();
            r.push(7.0);
        });
        assert_eq!(m.len(), 3, "cap holds");
        assert_eq!(m.evictions(), 1);
        assert!(m.get(2).is_none(), "stalest link evicted");
        assert_eq!(m.get(5), Some(&[5.0f32][..]), "refreshed link survives");
        assert_eq!(m.get(7), Some(&[7.0f32][..]));
        assert_eq!(m.last_delivery(7), Some(4));
        // the evicted link restarts cold: re-delivery runs init again
        let mut re_inited = false;
        m.replica_mut(2, 5, 3, |r| {
            re_inited = true;
            r.clear();
            r.push(-2.0);
        });
        assert!(re_inited, "evicted link must re-seed on return");
        assert_eq!(m.evictions(), 2, "returning link evicts the next stalest");
    }

    #[test]
    fn link_map_eviction_recycles_buffers() {
        // Steady-state churn must not allocate: the evicted replica's
        // buffer is handed to the incoming link.
        let mut m = LinkMap::default();
        for sender in 0..4u32 {
            m.replica_mut(sender, sender as u64, 4, |r| {
                r.clear();
                r.resize(64, sender as f32);
            });
        }
        for round in 4..40u64 {
            let sender = 4 + (round % 8) as u32;
            let mut saw_capacity = 0;
            m.replica_mut(sender, round, 4, |r| {
                saw_capacity = r.capacity();
                r.clear();
                r.resize(64, 1.0);
            });
            assert!(
                saw_capacity >= 64,
                "round {round}: recycled buffer lost its capacity"
            );
        }
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn feedback_state_active_links_stay_under_node_cap_product() {
        let n = 6;
        let cap = 2;
        let mut fb = ErrorFeedbackState::with_cap(n, 1.0, cap);
        for round in 0..50u64 {
            for dst in 0..n {
                let src = ((round as usize + dst) % (n - 1)) as u32;
                fb.incoming_mut()[dst].replica_mut(src, round, cap, |r| {
                    r.clear();
                    r.resize(8, 0.0);
                });
            }
        }
        assert!(fb.active_links() <= n * cap);
        assert!(fb.total_evictions() > 0, "churn must have evicted");
    }

    #[test]
    fn memory_transport_never_drops() {
        let t = TransportKind::Memory;
        for r in 0..100 {
            assert!(t.delivered(1, r, 0, 1));
        }
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let t = TransportKind::Serialized {
            drop_prob: 0.3,
            corrupt_prob: 0.0,
        };
        let mut dropped = 0usize;
        let total = 20_000;
        for r in 0..total {
            if !t.delivered(9, r, 3, 5) {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / total as f64;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate} far from 0.3");
    }

    #[test]
    fn drop_decisions_are_deterministic() {
        let t = TransportKind::Serialized {
            drop_prob: 0.5,
            corrupt_prob: 0.0,
        };
        for r in 0..50 {
            assert_eq!(t.delivered(4, r, 1, 2), t.delivered(4, r, 1, 2));
        }
    }

    #[test]
    fn zero_drop_prob_delivers_everything() {
        let t = TransportKind::Serialized {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
        };
        assert!((0..1000).all(|r| t.delivered(1, r, 0, 1)));
    }

    #[test]
    fn drop_streams_have_no_pairwise_collisions() {
        // The legacy stream `round·0x1_0000_0001 + (src << 20) + dst`
        // aliased distinct (round, src, dst) triples; the chained
        // derive_seed construction must give every triple its own stream.
        use std::collections::HashSet;
        let mut streams = HashSet::new();
        for round in 0..64usize {
            for src in 0..32usize {
                for dst in 0..32usize {
                    if src == dst {
                        continue;
                    }
                    let h = derive_seed(
                        derive_seed(derive_seed(7 ^ 0xD50F, round as u64), src as u64),
                        dst as u64,
                    );
                    assert!(
                        streams.insert(h),
                        "stream collision at ({round}, {src}, {dst})"
                    );
                }
            }
        }
    }

    #[test]
    fn opposite_directions_decide_independently() {
        // src→dst and dst→src must look like independent coins: for
        // p = 0.5 they agree about half the time, never always.
        let t = TransportKind::Serialized {
            drop_prob: 0.5,
            corrupt_prob: 0.0,
        };
        let total = 20_000;
        let agree = (0..total)
            .filter(|&r| t.delivered(3, r, 1, 2) == t.delivered(3, r, 2, 1))
            .count();
        let rate = agree as f64 / total as f64;
        assert!(
            (rate - 0.5).abs() < 0.03,
            "directional agreement {rate} far from independent 0.5"
        );
    }

    #[test]
    fn corruption_rate_tracks_probability() {
        let t = TransportKind::Serialized {
            drop_prob: 0.1,
            corrupt_prob: 0.2,
        };
        let total = 20_000;
        let (mut dropped, mut corrupted) = (0usize, 0usize);
        for r in 0..total {
            match t.fate(11, r, 2, 7) {
                MessageFate::Dropped => dropped += 1,
                MessageFate::Corrupted => corrupted += 1,
                MessageFate::Delivered => {}
            }
        }
        let drop_rate = dropped as f64 / total as f64;
        let corrupt_rate = corrupted as f64 / total as f64;
        assert!(
            (drop_rate - 0.1).abs() < 0.03,
            "drop rate {drop_rate} far from 0.1"
        );
        assert!(
            (corrupt_rate - 0.2).abs() < 0.03,
            "corruption rate {corrupt_rate} far from 0.2"
        );
    }

    #[test]
    fn corruption_loses_the_same_messages_as_an_equivalent_drop() {
        // One partitioned draw: {drop: 0, corrupt: p} must lose exactly
        // the message set {drop: p, corrupt: 0} loses — the pinned
        // corruption-equals-drop ledger equivalence rides on this.
        let corrupting = TransportKind::Serialized {
            drop_prob: 0.0,
            corrupt_prob: 0.35,
        };
        let dropping = TransportKind::Serialized {
            drop_prob: 0.35,
            corrupt_prob: 0.0,
        };
        for r in 0..500 {
            for (src, dst) in [(0, 1), (1, 0), (2, 5)] {
                assert_eq!(
                    corrupting.delivered(21, r, src, dst),
                    dropping.delivered(21, r, src, dst),
                );
                let f = corrupting.fate(21, r, src, dst);
                let d = dropping.fate(21, r, src, dst);
                assert_eq!(
                    f == MessageFate::Corrupted,
                    d == MessageFate::Dropped,
                    "loss sets diverged at ({r}, {src}, {dst})"
                );
            }
        }
    }

    #[test]
    fn pure_drop_fate_matches_legacy_delivered_stream() {
        // With corrupt_prob = 0 the partitioned draw reduces to the
        // original `u >= drop_prob` decision — every seeded run pinned
        // before corruption existed keeps its exact loss pattern.
        let t = TransportKind::Serialized {
            drop_prob: 0.3,
            corrupt_prob: 0.0,
        };
        for r in 0..1000 {
            let h = derive_seed(derive_seed(derive_seed(9 ^ 0xD50F, r as u64), 3), 5);
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            assert_eq!(t.delivered(9, r, 3, 5), u >= 0.3);
            assert_eq!(
                t.fate(9, r, 3, 5),
                if u < 0.3 {
                    MessageFate::Dropped
                } else {
                    MessageFate::Delivered
                }
            );
        }
    }

    #[test]
    fn corrupted_frame_fails_checksum_for_every_codec() {
        let params: Vec<f32> = (0..257).map(|i| (i as f32 * 0.37).sin()).collect();
        for codec in [
            ModelCodec::DenseF32,
            ModelCodec::QuantizedU8,
            ModelCodec::QuantizedU16,
            ModelCodec::TopK { k: 32 },
        ] {
            for r in 0..16usize {
                let mut frame = encode(codec, 3, r as u32, &params);
                corrupt_frame_in_place(&mut frame, 77, r, 3, 5);
                assert_eq!(
                    decode_err(&frame),
                    DecodeError::BadChecksum,
                    "corrupted {codec:?} frame round {r} must fail checksum"
                );
            }
        }
    }

    #[test]
    fn corruption_bit_flip_is_deterministic_and_self_inverse() {
        let params: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let clean = encode(ModelCodec::DenseF32, 1, 4, &params);
        let mut a = clean.clone();
        let mut b = clean.clone();
        corrupt_frame_in_place(&mut a, 5, 4, 1, 2);
        corrupt_frame_in_place(&mut b, 5, 4, 1, 2);
        assert_eq!(a, b, "same stream must flip the same bit");
        assert_ne!(a, clean);
        // XOR is self-inverse: flipping again restores the frame bit-exactly.
        corrupt_frame_in_place(&mut a, 5, 4, 1, 2);
        assert_eq!(a, clean);
        // Header stays parseable: only payload bytes may change.
        assert_eq!(&b[..PAYLOAD_START], &clean[..PAYLOAD_START]);
        assert_eq!(&b[b.len() - 4..], &clean[clean.len() - 4..]);
    }

    #[test]
    fn corrupting_a_headerless_stub_is_a_no_op() {
        let mut short = vec![0u8; PAYLOAD_START];
        let before = short.clone();
        corrupt_frame_in_place(&mut short, 1, 2, 3, 4);
        assert_eq!(short, before);
    }
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_frames_match_the_element_at_a_time_codec(
            words in proptest::collection::vec(0u32..u32::MAX, 0..160),
            k in 0usize..200
        ) {
            let params = hostile(&words);
            let (mut frame, mut enc) = (vec![0xEE; 7], EncodeScratch::default());
            for codec in [
                ModelCodec::DenseF32,
                ModelCodec::QuantizedU8,
                ModelCodec::QuantizedU16,
                ModelCodec::TopK { k },
            ] {
                encode_message_with(codec, 9, 11, &params, &mut frame, &mut enc);
                prop_assert_eq!(&frame, &encode_ref(codec, 9, 11, &params), "{:?}", codec);
                prop_assert!(check_decode_against_reference(&frame).is_ok());
            }
        }

        #[test]
        fn prop_decode_never_panics_and_never_overallocates(
            body in proptest::collection::vec(0u32..256, 0..160),
            shape in 0u32..u32::MAX,
            lie in 0u32..u32::MAX
        ) {
            let body: Vec<u8> = body.iter().map(|&b| b as u8).collect();
            // arbitrary bytes, as they are
            let _ = check_decode_against_reference(&body);

            // a hostile header over them, under a *valid* checksum
            let codec_id = [0, 1, 2, 3, 3, 3, 4][shape as usize % 7];
            let mut payload = body;
            if (shape >> 12) % 4 != 0 {
                // mostly a length the codec could have written
                let len = payload.len();
                payload.truncate(match codec_id {
                    0 => len / 4 * 4,
                    2 if len >= 8 => len / 2 * 2,
                    3 if len >= 4 => 4 + (len - 4) / 8 * 8,
                    _ => len,
                });
            }
            let honest_count = match codec_id {
                0 => payload.len() / 4,
                1 => payload.len().saturating_sub(8),
                2 => payload.len().saturating_sub(8) / 2,
                _ => payload.len(),
            } as u32;
            let count = [honest_count, honest_count, lie % 64, lie, u32::MAX, 0][(shape >> 3) as usize % 6];
            if codec_id == 3 && payload.len() >= 4 {
                let honest_k = (payload.len() as u32 - 4) / 8;
                let k = [honest_k, honest_k, honest_k, lie, u32::MAX][(shape >> 6) as usize % 5];
                payload[..4].copy_from_slice(&k.to_be_bytes());
                let indices = payload[4..4 + 4 * honest_k as usize].chunks_exact_mut(4);
                for (i, word) in indices.enumerate() {
                    // small indices: ascending three times in four, else
                    // unsorted with repeats
                    let idx = match (shape >> 9) % 4 {
                        0 => word[0] as u32 % 16,
                        _ => 3 * i as u32 + word[0] as u32 % 3,
                    };
                    word.copy_from_slice(&idx.to_le_bytes());
                }
            }
            let magic = if (shape >> 10) % 8 == 0 { lie } else { MAGIC };
            let mut frame = Vec::new();
            for word in [magic, codec_id, 1, 2, count] {
                frame.extend_from_slice(&word.to_be_bytes());
            }
            frame.extend_from_slice(&payload);
            frame.extend_from_slice(&checksum_ref(&payload).to_be_bytes());
            let _ = check_decode_against_reference(&frame);
            // and every truncation of it
            for cut in [1, 3, 4, 5, 23] {
                let _ = check_decode_against_reference(&frame[..frame.len().saturating_sub(cut)]);
            }
        }
    }
}
