//! Micro-benchmarks for the §10.3 CPU cost drivers: signatures, VRFs,
//! sortition, vote processing, and hashing. The paper attributes most
//! per-user CPU (~6.5% of a core) to verifying signatures and VRFs.

use algorand_ba::{RealVerifier, RoundWeights, StepKind, VoteContext, VoteMessage, VoteVerifier};
use algorand_bench::timing::{bench, bench_throughput};
use algorand_crypto::{sha256, sig, vrf, Keypair, PublicKey};
use algorand_ledger::transaction::SIG_MEMO_CAP;
use algorand_ledger::Transaction;
use algorand_sortition::{select, Role, SortitionParams};

fn bench_sha256() {
    for size in [64usize, 1024, 1 << 20] {
        let data = vec![0xabu8; size];
        bench_throughput(&format!("sha256/{size}B"), size as u64, || {
            std::hint::black_box(sha256(std::hint::black_box(&data)));
        });
    }
}

fn bench_signatures() {
    let keypair = Keypair::from_seed([1; 32]);
    let msg = [0x5au8; 300];
    let signature = sig::sign(&keypair, &msg);
    bench("sig/sign", || {
        std::hint::black_box(sig::sign(&keypair, std::hint::black_box(&msg)));
    });
    bench("sig/verify", || {
        let _ = std::hint::black_box(sig::verify(
            &keypair.pk,
            &msg,
            std::hint::black_box(&signature),
        ));
    });
}

fn bench_key_decode() {
    // More distinct valid keys than the memo holds: cycling through them
    // in order, every key was cleared out before it comes round again.
    let keys: Vec<[u8; 32]> = (0..=sig::KEY_MEMO_CAP as u32)
        .map(|i| {
            let mut seed = [0u8; 32];
            seed[..4].copy_from_slice(&i.to_le_bytes());
            Keypair::from_seed(seed).pk.to_bytes()
        })
        .collect();
    let mut i = 0;
    bench("key/decode_cold", || {
        i = (i + 1) % keys.len();
        let _ = std::hint::black_box(PublicKey::from_bytes(std::hint::black_box(&keys[i])));
    });
    bench("key/decode_memo", || {
        let _ = std::hint::black_box(PublicKey::from_bytes(std::hint::black_box(&keys[0])));
    });
}

fn bench_tx_signature() {
    // As above: more distinct transactions than the signature memo holds.
    let from = Keypair::from_seed([4; 32]);
    let to = Keypair::from_seed([5; 32]).pk;
    let txs: Vec<Transaction> = (0..=SIG_MEMO_CAP as u64)
        .map(|nonce| Transaction::payment(&from, to, 1, nonce + 1))
        .collect();
    let mut i = 0;
    bench("tx/signature_valid_cold", || {
        i = (i + 1) % txs.len();
        std::hint::black_box(std::hint::black_box(&txs[i]).signature_valid());
    });
    bench("tx/signature_valid_memo", || {
        std::hint::black_box(std::hint::black_box(&txs[0]).signature_valid());
    });
}

fn bench_vrf() {
    let keypair = Keypair::from_seed([2; 32]);
    let alpha = b"seed||role";
    let (_, proof) = vrf::prove(&keypair, alpha);
    bench("vrf/prove", || {
        std::hint::black_box(vrf::prove(&keypair, std::hint::black_box(alpha)));
    });
    bench("vrf/verify", || {
        let _ = std::hint::black_box(vrf::verify(
            &keypair.pk,
            alpha,
            std::hint::black_box(&proof),
        ));
    });
}

fn bench_sortition() {
    let keypair = Keypair::from_seed([3; 32]);
    let seed = [7u8; 32];
    let params = SortitionParams {
        tau: 2000.0,
        total_weight: 1_000_000,
    };
    let role = Role::Committee { round: 1, step: 1 };
    bench("sortition/select", || {
        std::hint::black_box(select(
            &keypair,
            &seed,
            role,
            &params,
            std::hint::black_box(5000),
        ));
    });
    let sel = select(&keypair, &seed, role, &params, 1_000_000).expect("whale is selected");
    bench("sortition/verify", || {
        let _ = std::hint::black_box(algorand_sortition::verify(
            &keypair.pk,
            std::hint::black_box(&sel.proof),
            &seed,
            role,
            &params,
            1_000_000,
        ));
    });
}

fn bench_vote_processing() {
    // ProcessMsg (Algorithm 6): the dominant cost of observing BA⋆.
    let keypairs: Vec<Keypair> = (0..4u8).map(|i| Keypair::from_seed([i + 1; 32])).collect();
    let weights = RoundWeights::from_pairs(keypairs.iter().map(|k| (k.pk, 1000u64)));
    let ctx = VoteContext {
        round: 1,
        seed: [9u8; 32],
        tau: 4000.0,
    };
    let step = StepKind::Main(1);
    let sel = select(
        &keypairs[0],
        &ctx.seed,
        Role::Committee {
            round: 1,
            step: step.code(),
        },
        &SortitionParams {
            tau: ctx.tau,
            total_weight: weights.total(),
        },
        1000,
    )
    .expect("selected");
    let vote = VoteMessage::sign(
        &keypairs[0],
        1,
        step,
        sel.vrf_output,
        sel.proof,
        [4u8; 32],
        [5u8; 32],
    );
    bench("ba/process_vote", || {
        std::hint::black_box(RealVerifier.verify_vote(std::hint::black_box(&vote), &ctx, &weights));
    });
}

fn main() {
    bench_sha256();
    bench_signatures();
    bench_key_decode();
    bench_tx_signature();
    bench_vrf();
    bench_sortition();
    bench_vote_processing();
}
