//! The FLBooster API interfaces (paper Table I).
//!
//! The paper wraps "commonly used arithmetic operations ... into
//! user-friendly APIs, including fundamental operations of arithmetic,
//! modular operations, and homomorphic encryption operations" for
//! developers building accelerated FL applications. [`FlBoosterApi`]
//! reproduces that surface: every function is *vectorized* — it operates
//! on arrays of multi-precision integers — and, when constructed with a
//! device, dispatches each array through one GPU kernel launch.

use std::sync::Arc;

use gpu_sim::{Device, ItemOutcome, KernelSpec};
use he::paillier::{Ciphertext, PaillierKeyPair, PaillierPrivateKey, PaillierPublicKey};
use he::rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
use mpint::Natural;
use rand::Rng;

use crate::{Error, Result};

/// Vectorized multi-precision and HE operations, optionally
/// GPU-dispatched.
#[derive(Clone, Default)]
pub struct FlBoosterApi {
    device: Option<Arc<Device>>,
}

/// Rough limb-op estimates used to account GPU kernel time for the basic
/// vector ops (size-dependent estimates come from the operand widths).
fn basic_op_cost(a: &Natural, b: &Natural) -> u64 {
    (a.limb_len().max(1) * b.limb_len().max(1)) as u64
}

impl FlBoosterApi {
    /// A CPU-only API instance.
    pub fn new() -> Self {
        FlBoosterApi { device: None }
    }

    /// An API instance that dispatches array operations through `device`.
    pub fn with_device(device: Arc<Device>) -> Self {
        FlBoosterApi {
            device: Some(device),
        }
    }

    /// Runs a binary elementwise operation, on the device if present.
    fn zip_op<F>(
        &self,
        name: &'static str,
        a: &[Natural],
        b: &[Natural],
        f: F,
    ) -> Result<Vec<Natural>>
    where
        F: Fn(&Natural, &Natural) -> Result<Natural> + Sync,
    {
        if a.len() != b.len() {
            return Err(Error::LengthMismatch {
                left: a.len(),
                right: b.len(),
            });
        }
        match &self.device {
            None => a.iter().zip(b).map(|(x, y)| f(x, y)).collect(),
            Some(device) => {
                let pairs: Vec<(&Natural, &Natural)> = a.iter().zip(b.iter()).collect();
                let bytes: u64 = pairs
                    .iter()
                    .map(|(x, y)| (x.wire_size_bytes() + y.wire_size_bytes()) as u64)
                    .sum();
                let spec = KernelSpec::simple(name);
                let (results, _) = device.launch(&spec, &pairs, bytes, bytes / 2, |_, (x, y)| {
                    let cost = basic_op_cost(x, y);
                    ItemOutcome::new(f(x, y), cost)
                });
                results.into_iter().collect()
            }
        }
    }

    /// Elementwise addition (`add` in Table I).
    pub fn add(&self, a: &[Natural], b: &[Natural]) -> Result<Vec<Natural>> {
        self.zip_op("api_add", a, b, |x, y| Ok(x + y))
    }

    /// Elementwise subtraction (`sub`); fails on underflow.
    pub fn sub(&self, a: &[Natural], b: &[Natural]) -> Result<Vec<Natural>> {
        self.zip_op("api_sub", a, b, |x, y| {
            x.checked_sub(y)
                .ok_or(Error::Arithmetic(mpint::Error::Overflow { bits: 0 }))
        })
    }

    /// Elementwise multiplication (`mul`).
    pub fn mul(&self, a: &[Natural], b: &[Natural]) -> Result<Vec<Natural>> {
        self.zip_op("api_mul", a, b, |x, y| Ok(x * y))
    }

    /// Elementwise Euclidean division (`div`), returning quotients.
    pub fn div(&self, a: &[Natural], b: &[Natural]) -> Result<Vec<Natural>> {
        self.zip_op("api_div", a, b, |x, y| {
            x.checked_div_rem(y)
                .map(|(q, _)| q)
                .map_err(Error::Arithmetic)
        })
    }

    /// Elementwise remainder (`mod` in Table I) against one modulus.
    pub fn mod_(&self, x: &[Natural], n: &Natural) -> Result<Vec<Natural>> {
        let ns = vec![n.clone(); x.len()];
        self.zip_op("api_mod", x, &ns, |a, b| {
            a.checked_div_rem(b)
                .map(|(_, r)| r)
                .map_err(Error::Arithmetic)
        })
    }

    /// Elementwise modular inverse (`mod_inv`).
    pub fn mod_inv(&self, x: &[Natural], n: &Natural) -> Result<Vec<Natural>> {
        let ns = vec![n.clone(); x.len()];
        self.zip_op("api_mod_inv", x, &ns, |a, b| {
            mpint::mod_inv(a, b).map_err(Error::Arithmetic)
        })
    }

    /// Elementwise modular multiplication (`mod_mul`) — the Montgomery
    /// kernel of Sec. IV-A3.
    pub fn mod_mul(&self, a: &[Natural], b: &[Natural], n: &Natural) -> Result<Vec<Natural>> {
        let ctx = mpint::MontgomeryCtx::new(n).map_err(Error::Arithmetic)?;
        self.zip_op("api_mod_mul", a, b, move |x, y| Ok(ctx.mod_mul(x, y)))
    }

    /// Elementwise modular exponentiation (`mod_pow`): `x[i]^p[i] mod n`.
    pub fn mod_pow(&self, x: &[Natural], p: &[Natural], n: &Natural) -> Result<Vec<Natural>> {
        self.zip_op("api_mod_pow", x, p, move |b, e| {
            mpint::modpow::mod_pow_any(b, e, n).map_err(Error::Arithmetic)
        })
    }

    // --- Paillier wrappers (Table I bottom half) ---

    /// `Paillier::key_gen(size)`.
    // One-time key setup before training sits outside the per-item cost
    // model (see PaillierKeyPair::generate).
    pub fn paillier_key_gen<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        size: u32,
    ) -> Result<PaillierKeyPair> {
        Ok(PaillierKeyPair::generate(rng, size)?)
    }

    /// `Paillier::encrypt(pub_key, plaintexts)` — batched.
    pub fn paillier_encrypt(
        &self,
        pk: &PaillierPublicKey,
        plaintexts: &[Natural],
        seed: u64,
    ) -> Result<Vec<Ciphertext>> {
        let backend = self.he_backend();
        let (cts, _) = backend.encrypt_batch(pk, plaintexts, seed)?;
        Ok(cts)
    }

    /// `Paillier::decrypt(pri_key, ciphertexts)` — batched.
    pub fn paillier_decrypt(
        &self,
        sk: &PaillierPrivateKey,
        ciphertexts: &[Ciphertext],
    ) -> Result<Vec<Natural>> {
        let backend = self.he_backend();
        let (ms, _) = backend.decrypt_batch(sk, ciphertexts)?;
        Ok(ms)
    }

    /// `Paillier::add(pub_key, c1, c2)` — batched homomorphic addition.
    pub fn paillier_add(
        &self,
        pk: &PaillierPublicKey,
        a: &[Ciphertext],
        b: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>> {
        if a.len() != b.len() {
            return Err(Error::LengthMismatch {
                left: a.len(),
                right: b.len(),
            });
        }
        let backend = self.he_backend();
        let (cts, _) = backend.add_batch(pk, a, b)?;
        Ok(cts)
    }

    // --- RSA wrappers ---

    /// `RSA::key_gen(size)`.
    pub fn rsa_key_gen<R: Rng + ?Sized>(&self, rng: &mut R, size: u32) -> Result<RsaKeyPair> {
        Ok(RsaKeyPair::generate(rng, size)?)
    }

    /// `RSA::encrypt(pub_key, plaintexts)` — batched.
    pub fn rsa_encrypt(&self, pk: &RsaPublicKey, plaintexts: &[Natural]) -> Result<Vec<Natural>> {
        match &self.device {
            None => plaintexts
                .iter()
                .map(|m| pk.encrypt(m).map_err(Error::He))
                .collect(),
            Some(device) => {
                let spec = he::GpuHe::kernel_spec("rsa_encrypt", pk.key_bits, false);
                let ops = pk.encrypt_op_estimate();
                let bytes: u64 = plaintexts.iter().map(|m| m.wire_size_bytes() as u64).sum();
                let (results, _) = device.launch(&spec, plaintexts, bytes, bytes, |_, m| {
                    gpu_sim::kernel::outcome_from_result(pk.encrypt(m), ops, false)
                });
                results.into_iter().map(|r| r.map_err(Error::He)).collect()
            }
        }
    }

    /// `RSA::decrypt(pri_key, ciphertexts)` — batched. Dispatches to the
    /// simulated device when one is configured, so CRT decryptions are
    /// charged per item like every other Table I operation.
    pub fn rsa_decrypt(&self, sk: &RsaPrivateKey, ciphertexts: &[Natural]) -> Result<Vec<Natural>> {
        match &self.device {
            None => ciphertexts
                .iter()
                .map(|c| sk.decrypt(c).map_err(Error::He))
                .collect(),
            Some(device) => {
                let spec = he::GpuHe::kernel_spec("rsa_decrypt", sk.public.key_bits, false);
                let ops = sk.decrypt_op_estimate();
                let bytes: u64 = ciphertexts.iter().map(|c| c.wire_size_bytes() as u64).sum();
                let (results, _) = device.launch(&spec, ciphertexts, bytes, bytes, |_, c| {
                    gpu_sim::kernel::outcome_from_result(sk.decrypt(c), ops, false)
                });
                results.into_iter().map(|r| r.map_err(Error::He)).collect()
            }
        }
    }

    /// `RSA::mul(pub_key, c1, c2)` — batched homomorphic multiplication.
    pub fn rsa_mul(&self, pk: &RsaPublicKey, a: &[Natural], b: &[Natural]) -> Result<Vec<Natural>> {
        self.zip_op("rsa_mul", a, b, |x, y| Ok(pk.mul(x, y)))
    }

    fn he_backend(&self) -> Box<dyn he::HeBackend> {
        match &self.device {
            Some(d) => Box::new(he::GpuHe::new(Arc::clone(d))),
            None => Box::new(he::CpuHe::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::DeviceConfig;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn nats(vs: &[u64]) -> Vec<Natural> {
        vs.iter().map(|&v| Natural::from(v)).collect()
    }

    fn apis() -> [FlBoosterApi; 2] {
        [
            FlBoosterApi::new(),
            FlBoosterApi::with_device(Arc::new(Device::new(DeviceConfig::rtx3090()))),
        ]
    }

    #[test]
    fn basic_vector_ops_cpu_and_gpu_agree() {
        for api in apis() {
            let a = nats(&[10, 20, 300]);
            let b = nats(&[3, 7, 50]);
            assert_eq!(api.add(&a, &b).unwrap(), nats(&[13, 27, 350]));
            assert_eq!(api.sub(&a, &b).unwrap(), nats(&[7, 13, 250]));
            assert_eq!(api.mul(&a, &b).unwrap(), nats(&[30, 140, 15000]));
            assert_eq!(api.div(&a, &b).unwrap(), nats(&[3, 2, 6]));
        }
    }

    #[test]
    fn modular_ops() {
        let api = FlBoosterApi::new();
        let x = nats(&[100, 200, 301]);
        let n = Natural::from(97u64);
        assert_eq!(api.mod_(&x, &n).unwrap(), nats(&[3, 6, 10]));
        let inv = api.mod_inv(&nats(&[3, 5]), &n).unwrap();
        assert_eq!(&(&inv[0] * &Natural::from(3u64)) % &n, Natural::one());
        assert_eq!(&(&inv[1] * &Natural::from(5u64)) % &n, Natural::one());
        let mm = api.mod_mul(&nats(&[10, 20]), &nats(&[30, 40]), &n).unwrap();
        assert_eq!(mm, nats(&[300 % 97, 800 % 97]));
        let mp = api.mod_pow(&nats(&[2, 3]), &nats(&[10, 4]), &n).unwrap();
        assert_eq!(mp, nats(&[1024 % 97, 81]));
    }

    #[test]
    fn length_mismatch_detected() {
        let api = FlBoosterApi::new();
        assert!(matches!(
            api.add(&nats(&[1]), &nats(&[1, 2])),
            Err(Error::LengthMismatch { left: 1, right: 2 })
        ));
    }

    #[test]
    fn sub_underflow_is_error() {
        let api = FlBoosterApi::new();
        assert!(api.sub(&nats(&[1]), &nats(&[2])).is_err());
    }

    #[test]
    fn div_by_zero_is_error() {
        let api = FlBoosterApi::new();
        assert!(api.div(&nats(&[1]), &nats(&[0])).is_err());
    }

    #[test]
    fn paillier_table1_flow() {
        let api = FlBoosterApi::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let keys = api.paillier_key_gen(&mut rng, 128).unwrap();
        let ms = nats(&[11, 22, 33]);
        let cts = api.paillier_encrypt(&keys.public, &ms, 5).unwrap();
        let sums = api.paillier_add(&keys.public, &cts, &cts).unwrap();
        let plains = api.paillier_decrypt(&keys.private, &sums).unwrap();
        assert_eq!(plains, nats(&[22, 44, 66]));
    }

    #[test]
    fn rsa_table1_flow() {
        let api = FlBoosterApi::new();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let keys = api.rsa_key_gen(&mut rng, 128).unwrap();
        let ms = nats(&[6, 7]);
        let cts = api.rsa_encrypt(&keys.public, &ms).unwrap();
        let prods = api.rsa_mul(&keys.public, &cts, &cts).unwrap();
        let plains = api.rsa_decrypt(&keys.private, &prods).unwrap();
        assert_eq!(plains, nats(&[36, 49]));
    }

    #[test]
    fn gpu_rsa_encrypt_matches_cpu() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let keys = RsaKeyPair::generate(&mut rng, 128).unwrap();
        let ms = nats(&[100, 200, 300]);
        let [cpu, gpu] = apis();
        assert_eq!(
            cpu.rsa_encrypt(&keys.public, &ms).unwrap(),
            gpu.rsa_encrypt(&keys.public, &ms).unwrap()
        );
    }

    #[test]
    fn gpu_rsa_decrypt_matches_cpu_and_charges() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let keys = RsaKeyPair::generate(&mut rng, 128).unwrap();
        let ms = nats(&[100, 200, 300]);
        let device = Arc::new(Device::new(DeviceConfig::rtx3090()));
        let cpu = FlBoosterApi::new();
        let gpu = FlBoosterApi::with_device(Arc::clone(&device));
        let cts = cpu.rsa_encrypt(&keys.public, &ms).unwrap();
        assert_eq!(
            cpu.rsa_decrypt(&keys.private, &cts).unwrap(),
            gpu.rsa_decrypt(&keys.private, &cts).unwrap()
        );
        let stats = device.stats();
        assert_eq!(stats.launches, 1, "decrypt must dispatch to the device");
        assert_eq!(stats.items, ms.len() as u64);
        assert!(stats.thread_ops > 0, "decrypt launches must charge ops");
    }

    #[test]
    fn gpu_dispatch_records_launches() {
        let device = Arc::new(Device::new(DeviceConfig::rtx3090()));
        let api = FlBoosterApi::with_device(Arc::clone(&device));
        api.add(&nats(&[1, 2]), &nats(&[3, 4])).unwrap();
        api.mul(&nats(&[1]), &nats(&[2])).unwrap();
        assert_eq!(device.stats().launches, 2);
    }
}
