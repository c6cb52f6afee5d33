//! Quickstart: encrypt a gradient vector with batch compression, add four
//! participants' contributions homomorphically, and decrypt the sums.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fl::{Accelerator, BackendKind};
use he::paillier::PaillierKeyPair;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    // 1. Build the platform: 512-bit Paillier keys (use >= 1024 in
    //    production), 4 participants, paper-default 32-bit quantization
    //    slots, batch compression on, simulated RTX 3090.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let keys = PaillierKeyPair::generate(&mut rng, 512).expect("key generation");
    let platform =
        Accelerator::new(BackendKind::FlBooster, keys, 4).expect("platform construction");

    println!("FLBooster quickstart");
    println!("  key size: {} bits", platform.key_bits());
    println!(
        "  slots per ciphertext: {}",
        platform.codec().slots_per_word()
    );

    // 2. Each participant encrypts its local gradients.
    let gradients: Vec<Vec<f64>> = (0..4)
        .map(|k| {
            (0..100)
                .map(|i| ((k * 100 + i) as f64 * 0.002).sin() * 0.5)
                .collect()
        })
        .collect();
    let mut uploads = Vec::new();
    let mut upload_bytes = 0u64;
    for (k, grads) in gradients.iter().enumerate() {
        let encrypted = platform.encrypt(grads, k as u64).expect("encrypt");
        upload_bytes += encrypted.bytes();
        println!(
            "  participant {k}: {} values -> {} ciphertexts ({} bytes), HE {:.2} ms simulated",
            grads.len(),
            encrypted.ciphertext_count(),
            encrypted.bytes(),
            platform.take_timing().he_seconds * 1e3,
        );
        uploads.push(encrypted);
    }
    println!(
        "  compression: {:.1}x fewer ciphertexts than one-per-value",
        100.0 / uploads[0].ciphertext_count() as f64
    );

    // 3. The server folds the ciphertexts (it never sees plaintext).
    let aggregate = platform.aggregate(&uploads).expect("aggregate");
    println!(
        "  server aggregated 4 batches homomorphically in {:.2} ms simulated",
        platform.take_timing().he_seconds * 1e3
    );

    // 4. Participants decrypt the element-wise sums.
    let sums = platform.decrypt_sum(&aggregate, 4).expect("decrypt");
    let expected: Vec<f64> = (0..100)
        .map(|i| gradients.iter().map(|g| g[i]).sum())
        .collect();
    let max_err = sums
        .iter()
        .zip(&expected)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("  decrypted sums match plaintext sums within {max_err:.2e}");
    println!("  total upload: {upload_bytes} bytes for 400 gradient values");
    assert!(max_err < 1e-6, "quantization error out of bounds");
    println!("ok");
}
