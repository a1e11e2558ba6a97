//! Parameter and training-state checkpointing: versioned binary
//! save/load for a [`ParamStore`], plus the crash-safe [`Checkpoint`]
//! v2 format and the [`Checkpointer`] that training loops hook in.
//!
//! Two on-disk versions share the same magic header:
//!
//! * **v1** — parameters only (name, shape, little-endian `f32`
//!   payload). Written by [`ParamStore::save`]; sufficient for
//!   inference and fine-tuning from scratch.
//! * **v2** — v1's parameter section plus the optimizer state
//!   ([`OptimState`]: `t` and the Adam moments), the epoch/batch
//!   cursor, and a CRC32 footer over the body. Written atomically
//!   (tmp file + fsync + rename) by [`Checkpoint::write_atomic`], so a
//!   crash mid-write can never leave a loadable-but-corrupt file — the
//!   previous checkpoint survives intact.
//!
//! Both loaders parse from an in-memory slice with explicit bounds
//! checks before any allocation, so hostile or truncated input yields
//! `InvalidData` — never a panic, never an attacker-sized
//! `Vec::with_capacity`. [`ParamStore::load`] accepts either version
//! (a v2 file degrades to its parameter section); [`Checkpointer::resume`]
//! treats a v1 file as "not resumable" since it carries no optimizer
//! state.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use rapid_tensor::Matrix;

use crate::optim::{OptimState, Optimizer};
use crate::params::ParamStore;

const MAGIC: &[u8; 8] = b"RAPIDPS\0";
const V1: u8 = 1;
const V2: u8 = 2;

/// Longest accepted parameter name, to bound hostile allocations.
const MAX_NAME_LEN: usize = 4096;
/// Largest accepted tensor element count (1 GiB of f32s).
const MAX_TENSOR_ELEMS: usize = 1 << 28;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

impl ParamStore {
    /// Serialises every parameter (names, shapes, values) to `w` in the
    /// v1 format — the stable inference-checkpoint format.
    pub fn save(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&[V1])?;
        w.write_all(&params_section_bytes(self))
    }

    /// Reads a store written by [`ParamStore::save`] (v1) or extracts
    /// the parameter section of a [`Checkpoint`] file (v2).
    ///
    /// # Errors
    /// Returns `InvalidData` on a bad magic/version, truncated payload,
    /// or (v2) a CRC mismatch.
    pub fn load(r: &mut impl Read) -> io::Result<Self> {
        Checkpoint::read(r).map(|c| c.params)
    }

    /// Copies all values from `other` into `self` by matching parameter
    /// names. Every parameter of `self` must be present in `other` with
    /// the same shape; parameters of `other` that `self` does not
    /// declare are deliberately ignored, so a checkpoint from a
    /// superset model (e.g. a probabilistic head) restores cleanly into
    /// a subset architecture.
    ///
    /// This is how a trained checkpoint is restored into a freshly
    /// constructed model (whose layers re-registered the same names).
    ///
    /// # Errors
    /// Returns `InvalidData` when a name is missing or a shape differs.
    pub fn restore_from(&mut self, other: &ParamStore) -> io::Result<()> {
        // Index `other` by name.
        let mut by_name = std::collections::HashMap::new();
        for id in other.ids() {
            by_name.insert(other.name(id).to_string(), id);
        }
        for id in self.ids().collect::<Vec<_>>() {
            let name = self.name(id).to_string();
            let src = by_name
                .get(&name)
                .ok_or_else(|| invalid(format!("restore_from: missing parameter {name}")))?;
            let value = other.value(*src);
            if value.shape() != self.value(id).shape() {
                return Err(invalid(format!(
                    "restore_from: shape mismatch for {name}: {:?} vs {:?}",
                    value.shape(),
                    self.value(id).shape()
                )));
            }
            self.set_shared_value(id, std::sync::Arc::clone(other.shared_value(*src)));
        }
        Ok(())
    }
}

/// The v1 body / v2 parameter section: count, then per parameter its
/// name, shape, and `f32` payload.
fn params_section_bytes(store: &ParamStore) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(store.len() as u64).to_le_bytes());
    for id in store.ids() {
        let name = store.name(id).as_bytes();
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name);
        write_matrix(&mut out, store.value(id));
    }
    out
}

fn write_matrix(out: &mut Vec<u8>, m: &Matrix) {
    out.extend_from_slice(&(m.rows() as u32).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u32).to_le_bytes());
    for &x in m.as_slice() {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// A bounds-checked cursor over untrusted checkpoint bytes. Every read
/// verifies the remaining length first, so truncation surfaces as
/// `InvalidData` and no length field is trusted before the bytes it
/// promises are known to exist.
struct SliceReader<'a> {
    buf: &'a [u8],
}

impl<'a> SliceReader<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if n > self.buf.len() {
            return Err(invalid("truncated checkpoint"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn byte(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }
}

/// Parses one shape-prefixed matrix, refusing element counts the
/// remaining bytes cannot possibly back.
fn parse_matrix(r: &mut SliceReader<'_>) -> io::Result<Matrix> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let n = rows
        .checked_mul(cols)
        .filter(|&n| n <= MAX_TENSOR_ELEMS)
        .ok_or_else(|| invalid("implausible tensor size"))?;
    // The length field is untrusted: verify the payload exists before
    // sizing any allocation by it (the pre-allocation DoS fix).
    let bytes = r.take(
        n.checked_mul(4)
            .ok_or_else(|| invalid("implausible tensor size"))?,
    )?;
    let mut data = Vec::with_capacity(n);
    for chunk in bytes.chunks_exact(4) {
        data.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Parses a parameter section (shared by v1 and v2).
fn parse_params(r: &mut SliceReader<'_>) -> io::Result<ParamStore> {
    let count = r.u64()? as usize;
    // Each parameter needs ≥ 12 bytes of framing; a count promising
    // more than the remaining bytes could frame is hostile.
    if count > r.remaining() / 12 {
        return Err(invalid("implausible parameter count"));
    }
    let mut store = ParamStore::new();
    for _ in 0..count {
        let name_len = r.u32()? as usize;
        if name_len > MAX_NAME_LEN {
            return Err(invalid("implausible name length"));
        }
        let name = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|e| invalid(format!("bad name: {e}")))?;
        let value = parse_matrix(r)?;
        store.add(name, value);
    }
    Ok(store)
}

/// Parses the optional optimizer-state section of a v2 body.
fn parse_optim(r: &mut SliceReader<'_>) -> io::Result<Option<OptimState>> {
    match r.byte()? {
        0 => Ok(None),
        1 => {
            let t = r.u64()?;
            let count = r.u64()? as usize;
            if count > r.remaining() / 16 {
                return Err(invalid("implausible optimizer-state count"));
            }
            let mut m = Vec::with_capacity(count.min(1024));
            let mut v = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let mi = parse_matrix(r)?;
                let vi = parse_matrix(r)?;
                if mi.shape() != vi.shape() {
                    return Err(invalid("optimizer moment shape mismatch"));
                }
                m.push(mi);
                v.push(vi);
            }
            Ok(Some(OptimState { t, m, v }))
        }
        f => Err(invalid(format!("bad optimizer-state flag {f}"))),
    }
}

/// CRC32 (IEEE 802.3, the zlib polynomial) over `bytes`.
fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// A full training checkpoint: parameters, optimizer state, and the
/// epoch/batch cursor — everything a resumed run needs to continue
/// bit-identically to an uninterrupted one (the loop's RNG streams are
/// replayed from their seeds, not persisted).
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// All trainable parameters at the checkpointed boundary.
    pub params: ParamStore,
    /// Optimizer state at the same boundary; `None` in v1 files (and
    /// for stateless optimizers), which makes the file non-resumable.
    pub optimizer: Option<OptimState>,
    /// Completed epochs at the time of the write.
    pub epochs_done: u64,
    /// Completed optimizer steps at the time of the write.
    pub batches_done: u64,
}

impl Checkpoint {
    /// Serialises to the v2 byte format (magic, version, body, CRC32
    /// footer over the body).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = params_section_bytes(&self.params);
        match &self.optimizer {
            Some(st) => {
                body.push(1);
                body.extend_from_slice(&st.t.to_le_bytes());
                body.extend_from_slice(&(st.m.len() as u64).to_le_bytes());
                for (m, v) in st.m.iter().zip(&st.v) {
                    write_matrix(&mut body, m);
                    write_matrix(&mut body, v);
                }
            }
            None => body.push(0),
        }
        body.extend_from_slice(&self.epochs_done.to_le_bytes());
        body.extend_from_slice(&self.batches_done.to_le_bytes());
        let mut out = Vec::with_capacity(MAGIC.len() + 1 + body.len() + 4);
        out.extend_from_slice(MAGIC);
        out.push(V2);
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out
    }

    /// Parses either checkpoint version from a byte buffer. A v1 buffer
    /// yields parameters with no optimizer state and a zero cursor.
    ///
    /// # Errors
    /// `InvalidData` on bad magic/version, truncation, hostile length
    /// fields, or (v2) a CRC mismatch — never a panic.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Checkpoint> {
        if bytes.len() < MAGIC.len() + 1 {
            return Err(invalid("truncated checkpoint"));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(invalid("bad magic header"));
        }
        let version = bytes[MAGIC.len()];
        let rest = &bytes[MAGIC.len() + 1..];
        match version {
            V1 => {
                let mut r = SliceReader { buf: rest };
                let params = parse_params(&mut r)?;
                Ok(Checkpoint {
                    params,
                    optimizer: None,
                    epochs_done: 0,
                    batches_done: 0,
                })
            }
            V2 => {
                if rest.len() < 4 {
                    return Err(invalid("truncated checkpoint"));
                }
                let (body, foot) = rest.split_at(rest.len() - 4);
                let expected = u32::from_le_bytes([foot[0], foot[1], foot[2], foot[3]]);
                if crc32(body) != expected {
                    return Err(invalid("checkpoint CRC mismatch (corrupt file)"));
                }
                let mut r = SliceReader { buf: body };
                let params = parse_params(&mut r)?;
                let optimizer = parse_optim(&mut r)?;
                let epochs_done = r.u64()?;
                let batches_done = r.u64()?;
                if r.remaining() != 0 {
                    return Err(invalid("trailing bytes after checkpoint body"));
                }
                Ok(Checkpoint {
                    params,
                    optimizer,
                    epochs_done,
                    batches_done,
                })
            }
            v => Err(invalid(format!("unsupported checkpoint version {v}"))),
        }
    }

    /// Reads a checkpoint (either version) from a stream.
    ///
    /// # Errors
    /// As [`Checkpoint::from_bytes`], plus any underlying read error.
    pub fn read(r: &mut impl Read) -> io::Result<Checkpoint> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Checkpoint::from_bytes(&bytes)
    }

    /// Loads a checkpoint file; `Ok(None)` when the file does not exist
    /// (a fresh run), errors on everything else.
    ///
    /// # Errors
    /// As [`Checkpoint::from_bytes`], plus any filesystem error other
    /// than `NotFound`.
    pub fn load_path(path: &Path) -> io::Result<Option<Checkpoint>> {
        match std::fs::read(path) {
            Ok(bytes) => Checkpoint::from_bytes(&bytes).map(Some),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Writes the checkpoint atomically: the bytes go to a sibling
    /// `.tmp` file which is fsynced and then renamed over `path`, so a
    /// crash or injected failure at any point leaves either the old
    /// complete file or the new complete file — never a torn one.
    ///
    /// # Errors
    /// Any filesystem error, or the injected `ckpt.write` fault; the
    /// tmp file is removed on failure.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        let bytes = self.to_bytes();
        let tmp = tmp_path(path);
        let write_tmp = |tmp: &Path| -> io::Result<()> {
            let mut f = std::fs::File::create(tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            // The injected `ckpt.write` fault fires between fsync and
            // rename — the exact window a non-atomic writer would
            // corrupt the published file in.
            rapid_faults::io_check("ckpt.write")?;
            Ok(())
        };
        match write_tmp(&tmp) {
            Ok(()) => std::fs::rename(&tmp, path),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }
}

/// The tmp sibling `write_atomic` stages into before the rename.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Where and how often a training loop checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint file path (the `.tmp` staging sibling lives next to it).
    pub path: PathBuf,
    /// Write every K completed epochs (clamped to ≥ 1).
    pub every_epochs: usize,
}

impl CheckpointConfig {
    /// A config writing to `path` every `every_epochs` epochs.
    pub fn new(path: impl Into<PathBuf>, every_epochs: usize) -> Self {
        Self {
            path: path.into(),
            every_epochs: every_epochs.max(1),
        }
    }
}

/// The training-loop hook that owns periodic checkpoint writes and the
/// resume read. Failures never stop training: an unreadable checkpoint
/// means a fresh start, a failed write means continuing on the previous
/// one — both counted and logged through `rapid-obs`.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    cfg: CheckpointConfig,
}

impl Checkpointer {
    /// A checkpointer over `cfg`.
    pub fn new(cfg: CheckpointConfig) -> Self {
        Self { cfg }
    }

    /// The checkpoint file path.
    pub fn path(&self) -> &Path {
        &self.cfg.path
    }

    /// Attempts to load a resumable checkpoint. Returns `None` — with a
    /// `warn` event and the `ckpt.load_errors` counter where applicable
    /// — when the file is absent, corrupt, or carries no optimizer
    /// state (a v1 inference checkpoint); training then starts fresh.
    pub fn resume(&self) -> Option<Checkpoint> {
        let reg = rapid_obs::global();
        match Checkpoint::load_path(&self.cfg.path) {
            Ok(Some(cp)) if cp.optimizer.is_some() => {
                reg.counter_add("ckpt.resumes", 1);
                Some(cp)
            }
            Ok(Some(_)) => {
                rapid_obs::event!(
                    rapid_obs::Level::Warn,
                    "ckpt",
                    "{}: checkpoint has no optimizer state (v1 inference format?); \
                     usable for inference only, training from scratch",
                    self.cfg.path.display()
                );
                None
            }
            Ok(None) => None,
            Err(e) => {
                reg.counter_add("ckpt.load_errors", 1);
                rapid_obs::event!(
                    rapid_obs::Level::Warn,
                    "ckpt",
                    "{}: unreadable checkpoint ({e}); training from scratch",
                    self.cfg.path.display()
                );
                None
            }
        }
    }

    /// Called by the training loop after each completed epoch; writes a
    /// checkpoint on every K-th boundary. A failed write is counted
    /// (`ckpt.write_errors`), warned about, and otherwise ignored — the
    /// previous checkpoint stays in place and training continues.
    pub fn on_epoch_end(
        &self,
        epochs_done: u64,
        batches_done: u64,
        store: &ParamStore,
        optimizer: &dyn Optimizer,
    ) {
        // `%` rather than `is_multiple_of`: the workspace MSRV (1.75)
        // predates its stabilisation.
        #[allow(clippy::manual_is_multiple_of)]
        if epochs_done == 0 || epochs_done % self.cfg.every_epochs as u64 != 0 {
            return;
        }
        let reg = rapid_obs::global();
        let t0 = rapid_obs::clock::now();
        let cp = Checkpoint {
            params: store.clone(),
            optimizer: optimizer.state(),
            epochs_done,
            batches_done,
        };
        match cp.write_atomic(&self.cfg.path) {
            Ok(()) => {
                reg.counter_add("ckpt.writes", 1);
                reg.observe("ckpt.write_ms", t0.elapsed().as_secs_f64() * 1e3);
            }
            Err(e) => {
                reg.counter_add("ckpt.write_errors", 1);
                rapid_obs::event!(
                    rapid_obs::Level::Warn,
                    "ckpt",
                    "{}: checkpoint write failed at epoch {epochs_done} ({e}); \
                     training continues on the previous checkpoint",
                    self.cfg.path.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(not(miri))]
    use proptest::prelude::*;

    fn sample_store() -> ParamStore {
        let mut s = ParamStore::new();
        s.add("layer.w", Matrix::from_rows(&[&[1.5, -2.0], &[0.0, 3.25]]));
        s.add("layer.b", Matrix::row_vector(&[0.5, -0.5]));
        s
    }

    fn sample_checkpoint() -> Checkpoint {
        let params = sample_store();
        let optimizer = Some(OptimState {
            t: 17,
            m: vec![
                Matrix::from_rows(&[&[0.1, 0.2], &[0.3, 0.4]]),
                Matrix::row_vector(&[1.0, 2.0]),
            ],
            v: vec![
                Matrix::from_rows(&[&[0.5, 0.6], &[0.7, 0.8]]),
                Matrix::row_vector(&[3.0, 4.0]),
            ],
        });
        Checkpoint {
            params,
            optimizer,
            epochs_done: 3,
            batches_done: 42,
        }
    }

    #[test]
    fn save_load_round_trips() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.save(&mut buf).unwrap();
        let loaded = ParamStore::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), store.len());
        for (a, b) in store.ids().zip(loaded.ids()) {
            assert_eq!(store.name(a), loaded.name(b));
            assert_eq!(store.value(a), loaded.value(b));
        }
    }

    #[test]
    fn load_rejects_garbage() {
        let err = ParamStore::load(&mut &b"not a checkpoint"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_rejects_truncation() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.save(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(ParamStore::load(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn restore_matches_by_name() {
        let trained = sample_store();
        let mut fresh = ParamStore::new();
        // Different registration order; same names/shapes.
        fresh.add("layer.b", Matrix::zeros(1, 2));
        fresh.add("layer.w", Matrix::zeros(2, 2));
        fresh.restore_from(&trained).unwrap();
        let w = fresh.ids().nth(1).unwrap();
        assert_eq!(fresh.value(w), trained.value(trained.ids().next().unwrap()));
    }

    #[test]
    fn restore_rejects_shape_mismatch() {
        let trained = sample_store();
        let mut fresh = ParamStore::new();
        fresh.add("layer.w", Matrix::zeros(3, 3));
        assert!(fresh.restore_from(&trained).is_err());
    }

    #[test]
    fn restore_rejects_missing_names() {
        let trained = sample_store();
        let mut fresh = ParamStore::new();
        fresh.add("other.w", Matrix::zeros(2, 2));
        assert!(fresh.restore_from(&trained).is_err());
    }

    #[test]
    fn restore_from_a_superset_source_ignores_the_extras() {
        // A trained store with MORE parameters than the fresh model
        // (e.g. a probabilistic checkpoint into a deterministic
        // architecture): the shared names restore, the extras are
        // deliberately dropped. This pins the superset → subset
        // semantics.
        let mut trained = sample_store();
        trained.add("extra.head", Matrix::row_vector(&[9.0, 9.0, 9.0]));
        let mut fresh = ParamStore::new();
        fresh.add("layer.w", Matrix::zeros(2, 2));
        fresh.add("layer.b", Matrix::zeros(1, 2));
        fresh.restore_from(&trained).unwrap();
        assert_eq!(fresh.len(), 2, "no parameter is invented by restore");
        let w = fresh.ids().next().unwrap();
        assert_eq!(fresh.value(w).get(0, 1), -2.0);
    }

    #[test]
    fn checkpoint_v2_round_trips_exactly() {
        let cp = sample_checkpoint();
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.epochs_done, 3);
        assert_eq!(back.batches_done, 42);
        let st = back.optimizer.unwrap();
        assert_eq!(st.t, 17);
        assert_eq!(st.m[1], Matrix::row_vector(&[1.0, 2.0]));
        assert_eq!(st.v[0].get(1, 1), 0.8);
        assert_eq!(back.params.len(), 2);
        // Byte-stability: serialising the parse re-produces the input.
        let cp2 = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(cp2.to_bytes(), bytes);
    }

    #[test]
    fn v1_files_load_as_non_resumable_checkpoints() {
        let store = sample_store();
        let mut buf = Vec::new();
        store.save(&mut buf).unwrap();
        let cp = Checkpoint::from_bytes(&buf).unwrap();
        assert!(cp.optimizer.is_none());
        assert_eq!(cp.epochs_done, 0);
        assert_eq!(cp.params.len(), 2);
        // And ParamStore::load accepts the v2 format symmetrically.
        let v2 = sample_checkpoint().to_bytes();
        let loaded = ParamStore::load(&mut v2.as_slice()).unwrap();
        assert_eq!(loaded.len(), 2);
    }

    #[test]
    fn every_truncation_and_bit_flip_is_invalid_data_not_a_panic() {
        let bytes = sample_checkpoint().to_bytes();
        for cut in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            assert!(
                Checkpoint::from_bytes(&corrupt).is_err(),
                "bit flip at {pos} must not parse"
            );
        }
    }

    #[test]
    fn write_atomic_is_crash_safe_under_injected_io_errors() {
        let dir = std::env::temp_dir().join("rapid_serialize_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let _ = std::fs::remove_file(&path);
        let cp = sample_checkpoint();
        cp.write_atomic(&path).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Inject an I/O failure between fsync and rename: the publish
        // must not happen and the previous file must survive bit-exact.
        rapid_faults::install(rapid_faults::FaultPlan::parse("ckpt.write=io-error").unwrap());
        let mut newer = sample_checkpoint();
        newer.epochs_done = 99;
        let err = newer.write_atomic(&path).unwrap_err();
        rapid_faults::clear();
        assert!(err.to_string().contains("injected"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), good, "old file intact");
        assert!(!tmp_path(&path).exists(), "tmp staging file cleaned up");
        assert_eq!(
            Checkpoint::load_path(&path).unwrap().unwrap().epochs_done,
            3,
            "surviving checkpoint still CRC-valid"
        );
    }

    #[test]
    fn checkpointer_resumes_only_from_resumable_files() {
        let dir = std::env::temp_dir().join("rapid_serialize_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.ckpt");
        let _ = std::fs::remove_file(&path);
        let ck = Checkpointer::new(CheckpointConfig::new(&path, 1));
        assert!(ck.resume().is_none(), "missing file → fresh start");
        // A v1 file is inference-only.
        let mut v1 = Vec::new();
        sample_store().save(&mut v1).unwrap();
        std::fs::write(&path, &v1).unwrap();
        assert!(ck.resume().is_none(), "v1 → no optimizer state → fresh");
        // A v2 file resumes.
        sample_checkpoint().write_atomic(&path).unwrap();
        assert_eq!(ck.resume().unwrap().epochs_done, 3);
        // A corrupted v2 file is refused, not fatal.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(ck.resume().is_none(), "corrupt → fresh start");
    }

    // Fuzz-style property tests are too slow under Miri (the nightly
    // job covers the deterministic unit tests above).
    #[cfg(not(miri))]
    proptest! {
        #[test]
        fn load_never_panics_on_hostile_bytes(
            raw in proptest::collection::vec(0u32..256, 0..512),
        ) {
            // Raw fuzz: any outcome but a panic (and almost always Err).
            let bytes: Vec<u8> = raw.iter().map(|&b| b as u8).collect();
            let _ = ParamStore::load(&mut bytes.as_slice());
            let _ = Checkpoint::from_bytes(&bytes);
        }

        #[test]
        fn hostile_length_fields_error_without_overallocating(
            count in 0u64..u64::MAX,
            name_len in 0u32..u32::MAX,
            rows in 0u32..u32::MAX,
            cols in 0u32..u32::MAX,
        ) {
            // A syntactically valid header whose length fields promise
            // far more than the payload delivers: every parse must stop
            // at a bounds check (no attacker-sized Vec::with_capacity)
            // and return Err.
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.push(V1);
            buf.extend_from_slice(&count.to_le_bytes());
            buf.extend_from_slice(&name_len.to_le_bytes());
            buf.extend_from_slice(b"w");
            buf.extend_from_slice(&rows.to_le_bytes());
            buf.extend_from_slice(&cols.to_le_bytes());
            buf.extend_from_slice(&1.0f32.to_le_bytes());
            if count > 0 {
                prop_assert!(ParamStore::load(&mut buf.as_slice()).is_err());
            }
            // The v2 parser hits the CRC check first; still never panics.
            let mut v2 = buf.clone();
            v2[MAGIC.len()] = V2;
            prop_assert!(Checkpoint::from_bytes(&v2).is_err());
        }

        #[test]
        fn corrupting_any_v2_byte_is_detected(pos_seed in 0u32..u32::MAX, flip in 1u32..256) {
            let bytes = {
                let mut s = ParamStore::new();
                s.add("w", Matrix::row_vector(&[1.0, 2.0, 3.0]));
                Checkpoint {
                    params: s,
                    optimizer: None,
                    epochs_done: 1,
                    batches_done: 2,
                }
                .to_bytes()
            };
            let pos = pos_seed as usize % bytes.len();
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= flip as u8;
            prop_assert!(Checkpoint::from_bytes(&corrupt).is_err());
        }
    }
}
