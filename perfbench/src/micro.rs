//! Per-layer costs: timed calls into each layer's public functions on
//! inputs shaped like the workload (its stake, τ and block sizes).

use crate::report::Report;
use crate::stats::median;
use algorand_ba::{
    Certificate, RealVerifier, RoundWeights, StepKind, VoteContext, VoteMessage, VoteVerifier,
};
use algorand_core::{AlgorandParams, BlockMessage, Node, PipelineVerifier, WireMessage};
use algorand_crypto::{sha256, vrf, Keypair, PublicKey};
use algorand_gossip::RelayState;
use algorand_ledger::{Accounts, Block, Transaction};
use algorand_node::NodeConfig;
use algorand_sortition::{select, Role, SortitionParams};
use algorand_txpool::{PoolConfig, TxPool};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time per timed batch.
const BATCH: Duration = Duration::from_millis(25);
/// Batches per measurement; the median batch is reported.
const BATCHES: usize = 5;

/// Seconds per call of `f`: the median over [`BATCHES`] batches, each
/// long enough to swamp timer resolution.
pub fn per_call(mut f: impl FnMut()) -> f64 {
    // Calibrate the batch size on one call (also warms caches).
    let t = Instant::now();
    f();
    let one = t.elapsed().as_secs_f64().max(1e-8);
    let n = ((BATCH.as_secs_f64() / one) as usize).clamp(1, 1_000_000);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                f();
            }
            t.elapsed().as_secs_f64() / n as f64
        })
        .collect();
    median(&samples)
}

/// Per-call costs, seconds, that the attribution tables multiply by
/// counts.
pub struct Costs {
    /// Full vote verification (signature, VRF, sortition).
    pub verify_vote: f64,
    /// A vote verification answered from the cache.
    pub cache_hit: f64,
    /// One relay dedup classification.
    pub relay_classify: f64,
}

/// Everything the workload-independent timings need.
struct Inputs<'a> {
    vote: &'a VoteMessage,
    ctx: VoteContext,
    weights: &'a RoundWeights,
    cert: &'a Certificate,
    cert_seed: [u8; 32],
    cert_prev: [u8; 32],
    params: &'a AlgorandParams,
    block_msg: BlockMessage,
    /// Admissible transactions against `accounts`, in nonce order.
    txs: &'a [Transaction],
    accounts: &'a Accounts,
    /// A user key and its stake, for sortition.
    user: &'a Keypair,
    stake: u64,
}

fn time_layers(report: &mut Report, x: &Inputs<'_>) -> Costs {
    crate::progress("timing layers");
    let buf = vec![0x5au8; 64 * 1024];
    let sha = per_call(|| {
        black_box(sha256(black_box(&buf)));
    });
    report.layer(
        "crypto.sha256_ns_per_byte",
        sha * 1e9 / buf.len() as f64,
        "ns",
    );
    let pk_bytes = x.vote.sender.to_bytes();
    report.check(PublicKey::from_bytes(&pk_bytes).is_ok(), || {
        "micro: key decode failed".into()
    });
    let key = per_call(|| {
        let _ = black_box(PublicKey::from_bytes(black_box(&pk_bytes)));
    });
    report.layer("crypto.key_decode_us", key * 1e6, "us");
    let tx = &x.txs[0];
    report.check(tx.signature_valid(), || {
        "micro: transaction signature rejected".into()
    });
    let sig_us = per_call(|| {
        black_box(black_box(tx).signature_valid());
    });
    report.layer("crypto.sig_verify_us", sig_us * 1e6, "us");
    let alpha = b"perfbench vrf input";
    let (_, proof) = vrf::prove(x.user, alpha);
    report.check(vrf::verify(&x.user.pk, alpha, &proof).is_ok(), || {
        "micro: VRF proof rejected".into()
    });
    let vrf_us = per_call(|| {
        let _ = black_box(vrf::verify(&x.user.pk, alpha, black_box(&proof)));
    });
    report.layer("crypto.vrf_verify_us", vrf_us * 1e6, "us");

    // The vote's own committee: its step and that step's τ.
    let sort_params = SortitionParams {
        tau: x.params.ba.tau_for(x.vote.step == StepKind::Final),
        total_weight: x.weights.total(),
    };
    let role = Role::Committee {
        round: x.ctx.round,
        step: x.vote.step.code(),
    };
    let select_us = per_call(|| {
        black_box(select(x.user, &x.ctx.seed, role, &sort_params, x.stake));
    });
    report.layer("sortition.select_us", select_us * 1e6, "us");
    let selected = algorand_sortition::verify(
        &x.vote.sender,
        &x.vote.sort_proof,
        &x.ctx.seed,
        role,
        &sort_params,
        x.stake,
    );
    report.check(selected.is_ok_and(|j| j > 0), || {
        format!("micro: sortition proof of the timed vote gave {selected:?}")
    });
    let verify_us = per_call(|| {
        let _ = black_box(algorand_sortition::verify(
            &x.vote.sender,
            black_box(&x.vote.sort_proof),
            &x.ctx.seed,
            role,
            &sort_params,
            x.stake,
        ));
    });
    report.layer("sortition.verify_us", verify_us * 1e6, "us");

    report.check(
        RealVerifier
            .verify_vote(x.vote, &x.ctx, x.weights)
            .is_some(),
        || "micro: the timed vote did not verify".into(),
    );
    let vote_us = per_call(|| {
        black_box(RealVerifier.verify_vote(black_box(x.vote), &x.ctx, x.weights));
    });
    report.layer("ba.verify_vote_us", vote_us * 1e6, "us");
    let cached = PipelineVerifier::new();
    report.check(
        cached.verify_vote(x.vote, &x.ctx, x.weights).is_some(),
        || "micro: the cached verifier rejected the timed vote".into(),
    );
    let hit = per_call(|| {
        black_box(cached.verify_vote(black_box(x.vote), &x.ctx, x.weights));
    });
    report.layer("core.verify.cache_hit_us", hit * 1e6, "us");
    let valid = x.cert.validate(
        &x.params.ba,
        &x.cert_seed,
        &x.cert_prev,
        x.weights,
        &RealVerifier,
    );
    report.check(valid.is_ok(), || {
        format!("micro: the timed certificate is invalid: {valid:?}")
    });
    let cert_ms = per_call(|| {
        let _ = black_box(x.cert.validate(
            &x.params.ba,
            &x.cert_seed,
            &x.cert_prev,
            x.weights,
            &RealVerifier,
        ));
    });
    report.layer("ba.certificate_verify_ms", cert_ms * 1e3, "ms");

    let vote_wire = WireMessage::Vote(x.vote.clone()).encoded();
    let tx_wire = WireMessage::Transaction(tx.clone()).encoded();
    let block_wire = WireMessage::Block(x.block_msg.clone()).encoded();
    for (what, wire) in [
        ("vote", &vote_wire),
        ("transaction", &tx_wire),
        ("block", &block_wire),
    ] {
        report.check(WireMessage::decode_frame(wire).is_ok(), || {
            format!("micro: {what} frame did not decode")
        });
    }
    let dv = per_call(|| {
        let _ = black_box(WireMessage::decode_frame(black_box(&vote_wire)));
    });
    report.layer("core.wire.decode_vote_us", dv * 1e6, "us");
    let dt = per_call(|| {
        let _ = black_box(WireMessage::decode_frame(black_box(&tx_wire)));
    });
    report.layer("core.wire.decode_tx_us", dt * 1e6, "us");
    let db = per_call(|| {
        let _ = black_box(WireMessage::decode_frame(black_box(&block_wire)));
    });
    let per_tx = x.block_msg.block.txs.len().max(1) as f64;
    report.layer("core.wire.decode_block_us_per_tx", db * 1e6 / per_tx, "us");

    // Every transaction is admissible in order against `accounts`.
    let mut pool = TxPool::new(PoolConfig::default());
    let refused = x
        .txs
        .iter()
        .filter(|tx| pool.admit((*tx).clone(), x.accounts).is_err())
        .count();
    report.check(refused == 0, || {
        format!("micro: pool refused {refused} of the timed transactions")
    });
    let mut acc = x.accounts.clone();
    let failed = x.txs.iter().filter(|tx| acc.apply(tx).is_err()).count();
    report.check(failed == 0, || {
        format!("micro: ledger failed {failed} of the timed transactions")
    });
    // A fresh pool per pass: every admit is a first sight.
    let mut pool = TxPool::new(PoolConfig::default());
    let mut i = 0usize;
    let admit = per_call(|| {
        if i == x.txs.len() {
            pool = TxPool::new(PoolConfig::default());
            i = 0;
        }
        let _ = black_box(pool.admit(x.txs[i].clone(), x.accounts));
        i += 1;
    });
    report.layer("txpool.admit_us", admit * 1e6, "us");
    let apply = per_call(|| {
        let mut acc = x.accounts.clone();
        for tx in x.txs {
            let _ = black_box(acc.apply(tx));
        }
    });
    report.layer(
        "ledger.apply_block_us_per_tx",
        apply * 1e6 / x.txs.len() as f64,
        "us",
    );

    let ids: Vec<[u8; 32]> = (0..4096u32).map(|i| sha256(&i.to_le_bytes())).collect();
    let mut relay = RelayState::new();
    let mut j = 0usize;
    let relay_s = per_call(|| {
        black_box(relay.classify(ids[j % ids.len()], None));
        j += 1;
    });
    report.layer("gossip.relay.classify_ns", relay_s * 1e9, "ns");
    Costs {
        verify_vote: vote_us,
        cache_hit: hit,
        relay_classify: relay_s,
    }
}

/// A block message carrying `block`, with a real proposer proof.
fn block_message(block: Block, proposer: &Keypair) -> BlockMessage {
    let (sorthash, sort_proof) = vrf::prove(proposer, b"perfbench proposer");
    BlockMessage {
        block,
        sorthash,
        sort_proof,
    }
}

/// Transactions from `chain` rounds in order, restricted to the first
/// nonces of each sender, so each is admissible against genesis.
fn genesis_admissible(node: &Node, limit: usize) -> Vec<Transaction> {
    let chain = node.chain();
    let mut out = Vec::new();
    for r in 1..=chain.tip().round {
        for tx in chain.block_at(r).map_or(&[][..], |b| &b.txs[..]) {
            out.push(tx.clone());
            if out.len() == limit {
                return out;
            }
        }
    }
    out
}

/// Per-layer timings on a real node's finalized chain: its busiest
/// block, that round's certificate and votes, and its transactions.
pub fn node_layers(report: &mut Report, node: &Node, cfg: &NodeConfig) {
    let chain = node.chain();
    let params = cfg.params();
    let tip = chain.tip().round;
    let r = (2..=tip)
        .filter(|&r| chain.certificate_at(r).is_some())
        .max_by_key(|&r| chain.block_at(r).map_or(0, |b| b.txs.len()))
        .unwrap_or(tip);
    let (Some(block), Some(cert), Some(prev)) = (
        chain.block_at(r),
        chain.certificate_at(r),
        chain.block_at(r - 1),
    ) else {
        report.check(false, || {
            format!("no certified round {r} to time layers on")
        });
        return;
    };
    let weights = chain.weights_for_round(r);
    let seed = chain.selection_seed(r);
    let genesis = cfg.genesis();
    let txs = genesis_admissible(node, 200);
    if txs.is_empty() {
        report.check(false, || "no transactions to time layers on".into());
        return;
    }
    let user = cfg.keypair();
    let inputs = Inputs {
        vote: &cert.votes[0],
        ctx: VoteContext {
            round: r,
            seed,
            tau: params.ba.tau_for(cert.step == StepKind::Final),
        },
        weights: &weights,
        cert,
        cert_seed: seed,
        cert_prev: prev.hash(),
        params: &params,
        block_msg: block_message(block.clone(), &user),
        txs: &txs,
        accounts: genesis.accounts(),
        user: &user,
        stake: cfg.stake_per_user,
    };
    time_layers(report, &inputs);
}

/// Per-layer timings on inputs shaped like the simulated deployment:
/// `n` users of `stake` each under `params`, a certificate built from
/// real committee votes, and a block of `block_txs` payments.
pub fn sim_layers(
    report: &mut Report,
    n: usize,
    stake: u64,
    params: &AlgorandParams,
    block_txs: usize,
) -> Costs {
    let users: Vec<Keypair> = (0..n)
        .map(|i| {
            let mut s = [0u8; 32];
            s[..8].copy_from_slice(&(i as u64 + 1).to_le_bytes());
            Keypair::from_seed(s)
        })
        .collect();
    let weights = RoundWeights::from_pairs(users.iter().map(|k| (k.pk, stake)));
    let seed = [0x42u8; 32];
    let step = StepKind::Main(1);
    let sort_params = SortitionParams {
        tau: params.ba.tau_step,
        total_weight: weights.total(),
    };
    let role = Role::Committee {
        round: 1,
        step: step.code(),
    };
    let (prev, value) = ([1u8; 32], [2u8; 32]);
    let mut votes = Vec::new();
    let mut total = 0u64;
    for kp in &users {
        if total as f64 > params.ba.threshold_for(false) {
            break;
        }
        if let Some(sel) = select(kp, &seed, role, &sort_params, stake) {
            total += sel.j;
            votes.push(VoteMessage::sign(
                kp,
                1,
                step,
                sel.vrf_output,
                sel.proof,
                prev,
                value,
            ));
        }
    }
    let cert = Certificate {
        round: 1,
        step,
        value,
        votes,
    };
    let accounts = Accounts::genesis(users.iter().map(|k| (k.pk, stake)));
    let txs: Vec<Transaction> = (0..block_txs.max(1))
        .map(|i| {
            let from = i % n;
            Transaction::payment(
                &users[from],
                users[(from + 1) % n].pk,
                1,
                (i / n) as u64 + 1,
            )
        })
        .collect();
    let block = Block {
        round: 1,
        prev_hash: prev,
        seed,
        seed_proof: None,
        proposer: Some(users[0].pk),
        timestamp: 0,
        txs: txs.clone(),
        payload: Vec::new(),
    };
    let inputs = Inputs {
        vote: &cert.votes[0],
        ctx: VoteContext {
            round: 1,
            seed,
            tau: params.ba.tau_step,
        },
        weights: &weights,
        cert: &cert,
        cert_seed: seed,
        cert_prev: prev,
        params,
        block_msg: block_message(block, &users[0]),
        txs: &txs,
        accounts: &accounts,
        user: &users[0],
        stake,
    };
    time_layers(report, &inputs)
}
