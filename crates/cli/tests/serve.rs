//! Cross-process tests for `adec serve`: spawn the real binary against a
//! real checkpoint file, drive it over TCP, and check the exit-code
//! contract (0 on drained shutdown, 2 usage, 4 checkpoint, 6 serve).

// Test code: unwraps are the assertions themselves here.
#![allow(clippy::unwrap_used, clippy::panic)]

use adec_loadgen::client::{get, post};
use adec_loadgen::csv_rows;
use adec_nn::checkpoint::reseal_checksum;
use adec_nn::io::write_store;
use adec_nn::{
    soft_assignment, Activation, Checkpoint, Mlp, OptState, Optimizer, ParamStore,
    ReferenceProfile, Sgd,
};
use adec_tensor::kernels::NR;
use adec_tensor::{Matrix, SeedRng};
use std::io::{BufRead, BufReader};
use std::net::{Ipv4Addr, SocketAddr};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const INPUT_DIM: usize = 6;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("adec-serve-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a tiny trained-looking checkpoint, with SGD momentum for every
/// parameter, to `path`.
fn write_checkpoint(path: &Path, phase: &str, with_centroids: bool) {
    let mut rng = SeedRng::new(33);
    let mut store = ParamStore::new();
    Mlp::new(&mut store, &[INPUT_DIM, 5, 3], Activation::Relu, Activation::Linear, &mut rng);
    Mlp::new(&mut store, &[3, 5, INPUT_DIM], Activation::Relu, Activation::Linear, &mut rng);
    if with_centroids {
        store.register("dec.centroids", Matrix::randn(4, 3, 0.0, 1.0, &mut rng));
    }
    let grads: Vec<_> = store
        .iter()
        .map(|(id, _, m)| (id, Matrix::randn(m.rows(), m.cols(), 0.0, 0.1, &mut rng)))
        .collect();
    let mut sgd = Sgd::new(0.01, 0.9);
    sgd.step_grads(&mut store.clone(), &grads);
    let ck = Checkpoint {
        phase: phase.into(),
        iter: 5,
        rng: rng.export_state(),
        store,
        opts: vec![OptState::capture_sgd(&sgd)],
        extra: vec![],
        profile: None,
    };
    ck.save_atomic(path).unwrap();
}

/// The bytes of the checkpoint at `path` with one bit flipped inside the
/// weights, and with one flipped inside the optimizer state, which serve
/// verifies but does not decode.
fn corrupted_copies(path: &Path) -> [(&'static str, Vec<u8>); 2] {
    let bytes = std::fs::read(path).unwrap();
    let ck = Checkpoint::decode(&bytes).unwrap();
    let mut blob = Vec::new();
    write_store(&ck.store, &mut blob).unwrap();
    // Header; phase (u32 length + name), iter, four RNG words, the
    // Box–Muller flag and value, the store blob's u64 length; the blob.
    let blob_at = 24 + 4 + ck.phase.len() + 8 + 32 + 5 + 8;
    // The last byte of the blob is the top byte of the centroids' last
    // value. Past the blob: optimizer count, SGD tag, lr, slot count, the
    // first slot's flag and shape, then its momentum data.
    let weight_at = blob_at + blob.len() - 1;
    let momentum_at = blob_at + blob.len() + 4 + 1 + 4 + 4 + 1 + 8 + 2;
    [("weights", weight_at), ("optimizer state", momentum_at)].map(|(what, at)| {
        let mut bad = bytes.clone();
        *bad.get_mut(at).unwrap() ^= 0x10;
        // Resealed, the flip decodes and moves the weights only if it
        // landed in them.
        let mut resealed = bad.clone();
        assert!(reseal_checksum(&mut resealed));
        let mut moved = Vec::new();
        write_store(&Checkpoint::decode(&resealed).unwrap().store, &mut moved).unwrap();
        assert_eq!(moved != blob, what == "weights", "flip in the {what} missed it");
        (what, bad)
    })
}

/// Spawns `adec serve` on an ephemeral port and returns (child, addr).
fn spawn_serve(checkpoint: &Path, extra: &[&str]) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_adec"))
        .arg("serve")
        .args(["--checkpoint", checkpoint.to_str().unwrap(), "--port", "0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // The first stdout line is `listening on 127.0.0.1:<port>`.
    let stdout = child.stdout.take().unwrap();
    let mut lines = BufReader::new(stdout).lines();
    let line = lines.next().unwrap().unwrap();
    let port: u16 = line.rsplit(':').next().unwrap().trim().parse().unwrap();
    (child, SocketAddr::from((Ipv4Addr::LOCALHOST, port)))
}

/// Waits for the child to exit, with a hang guard.
fn wait_with_deadline(child: &mut Child, secs: u64) -> std::process::ExitStatus {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("adec serve did not exit within {secs}s of /shutdown");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn serve_binary_serves_and_drains_to_exit_zero() {
    let dir = temp_dir("roundtrip");
    let ckpt = dir.join("dec.ckpt");
    write_checkpoint(&ckpt, "dec", true);

    let (mut child, addr) = spawn_serve(&ckpt, &[]);
    let (status, body) = get(addr, "/readyz").unwrap();
    assert_eq!(status, 200);
    assert!(String::from_utf8(body).unwrap().contains(r#""mode":"full""#));

    let (status, resp) = post(
        addr,
        "/assign",
        &csv_rows(INPUT_DIM, 3, &mut SeedRng::new(5)),
    )
    .unwrap()
    .unwrap();
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));

    // Hostile input mid-run must not kill the process.
    let _ = post(addr, "/assign", b"garbage,that,is,not,floats,!\n");
    assert_eq!(get(addr, "/healthz").unwrap().0, 200);

    assert_eq!(post(addr, "/shutdown", b"").unwrap().unwrap().0, 200);
    let status = wait_with_deadline(&mut child, 30);
    assert_eq!(status.code(), Some(0), "drained shutdown must exit 0");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_missing_checkpoint_exits_4() {
    let out = Command::new(env!("CARGO_BIN_EXE_adec"))
        .args(["serve", "--checkpoint", "/nonexistent/nowhere.ckpt"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn serve_corrupt_checkpoint_exits_4_naming_the_checksum() {
    let dir = temp_dir("corrupt");
    let ckpt = dir.join("dec.ckpt");
    write_checkpoint(&ckpt, "dec", true);
    for (what, bytes) in corrupted_copies(&ckpt) {
        let bad = dir.join("bad.ckpt");
        std::fs::write(&bad, bytes).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_adec"))
            .args(["serve", "--checkpoint", bad.to_str().unwrap(), "--port", "0"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(4), "flip in the {what}: {stderr}");
        assert!(stderr.contains("checksum mismatch"), "flip in the {what}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reload_of_a_corrupt_checkpoint_is_refused_and_keeps_the_live_version() {
    let dir = temp_dir("corrupt-reload");
    let ckpt = dir.join("dec.ckpt");
    write_checkpoint(&ckpt, "dec", true);
    let copies = corrupted_copies(&ckpt);
    // `adec serve` reloads from the path it booted from.
    let (mut child, addr) = spawn_serve(&ckpt, &[]);
    for (what, bytes) in copies {
        std::fs::write(&ckpt, bytes).unwrap();
        let (status, body) = post(addr, "/reload", b"").unwrap().unwrap();
        let body = String::from_utf8(body).unwrap();
        assert_eq!(status, 409, "flip in the {what}: {body}");
        assert!(body.contains(r#""reason":"corrupt-checkpoint""#), "flip in the {what}: {body}");
        assert!(body.contains("checksum mismatch"), "flip in the {what}: {body}");
        let (_, readyz) = get(addr, "/readyz").unwrap();
        let readyz = String::from_utf8(readyz).unwrap();
        assert!(readyz.contains(r#""model_version":1,"#), "flip in the {what}: {readyz}");
    }
    assert_eq!(post(addr, "/shutdown", b"").unwrap().unwrap().0, 200);
    assert_eq!(wait_with_deadline(&mut child, 30).code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_unservable_checkpoint_exits_6() {
    let dir = temp_dir("pretrain");
    let ckpt = dir.join("pretrain.ckpt");
    // A pretraining checkpoint has no centroids: loadable but unservable.
    write_checkpoint(&ckpt, "pretrain", false);
    let out = Command::new(env!("CARGO_BIN_EXE_adec"))
        .args(["serve", "--checkpoint", ckpt.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(6), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("centroids"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_usage_errors_exit_2() {
    for bad in [
        vec!["serve"],
        vec!["serve", "--checkpoint", "x.ckpt", "--port", "banana"],
        vec!["serve", "--checkpoint", "x.ckpt", "--wat"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_adec")).args(&bad).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {bad:?}");
    }
}

/// The encoder widths of the paper tier, d–500–500–2000–10 (Mrabah et al.,
/// and VaDE before them), at a data width of 784.
const PAPER_DIMS: [usize; 5] = [784, 500, 500, 2000, 10];

/// Writes a checkpoint shaped like a paper-tier ADEC run, from seeded
/// weights: encoder, mirror decoder, centroids, SGD velocity for every
/// tensor, and a reference profile. Returns the bytes its two served
/// networks take once packed into the gemm's `NR`-wide panels.
fn write_paper_checkpoint(path: &Path) -> u64 {
    let mut rng = SeedRng::new(47);
    let mut store = ParamStore::new();
    let encoder = Mlp::new(&mut store, &PAPER_DIMS, Activation::Relu, Activation::Linear, &mut rng);
    let mut mirror = PAPER_DIMS;
    mirror.reverse();
    Mlp::new(&mut store, &mirror, Activation::Relu, Activation::Linear, &mut rng);
    let latent = PAPER_DIMS[4];
    let mu = store.register("adec.centroids", Matrix::randn(10, latent, 0.0, 1.0, &mut rng));
    let packed = store
        .iter()
        .filter(|(_, name, _)| name.ends_with(".w"))
        .map(|(_, _, w)| (w.rows() * w.cols().div_ceil(NR) * NR * 4) as u64)
        .sum();
    let grads: Vec<_> = store
        .iter()
        .map(|(id, _, m)| (id, Matrix::full(m.rows(), m.cols(), 0.01)))
        .collect();
    let mut sgd = Sgd::new(0.01, 0.9);
    sgd.step_grads(&mut store.clone(), &grads);
    let x = Matrix::randn(64, PAPER_DIMS[0], 0.0, 1.0, &mut rng);
    let z = encoder.infer(&store, &x);
    let q = soft_assignment(&z, store.get(mu), 1.0);
    let profile = ReferenceProfile::compute(&z, &q, store.get(mu));
    let ck = Checkpoint {
        phase: "adec".into(),
        iter: 20,
        rng: rng.export_state(),
        store,
        opts: vec![OptState::capture_sgd(&sgd)],
        extra: vec![],
        profile: Some(profile),
    };
    ck.save_atomic(path).unwrap();
    packed
}

/// A `kB` field of `/proc/<pid>/status`, in bytes, where the platform
/// reports it.
fn status_bytes(pid: u32, key: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    let kib: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib * 1024)
}

fn shutdown(mut child: Child, addr: SocketAddr) {
    assert_eq!(post(addr, "/shutdown", b"").unwrap().unwrap().0, 200);
    assert_eq!(wait_with_deadline(&mut child, 60).code(), Some(0));
}

#[test]
fn serve_boots_and_reloads_in_bounded_memory() {
    let dir = temp_dir("memory");
    let tiny = dir.join("tiny.ckpt");
    write_checkpoint(&tiny, "dec", true);
    let paper = dir.join("paper.ckpt");
    let packed = write_paper_checkpoint(&paper);
    let file = std::fs::metadata(&paper).unwrap().len();

    // The process's own footprint: the boot peak on a tiny checkpoint.
    let (child, addr) = spawn_serve(&tiny, &[]);
    let base = status_bytes(child.id(), "VmHWM");
    shutdown(child, addr);
    let Some(base) = base else {
        let _ = std::fs::remove_dir_all(&dir);
        return; // no /proc/<pid>/status on this platform
    };

    // Booting streams the file through a fixed window and packs each
    // served layer as it releases its raw weight, so the peak stays well
    // under the file: the packed networks are about half of it, since
    // the optimizer state is verified but never decoded.
    let (mut child, addr) = spawn_serve(&paper, &[]);
    let pid = child.id();
    // A failed check stops the server before it fails the test.
    let mut check = |ok: bool, msg: String| {
        if !ok {
            let _ = child.kill();
            panic!("{msg}");
        }
    };
    let boot = status_bytes(pid, "VmHWM").unwrap().saturating_sub(base);
    let bound = file * 4 / 5;
    check(
        boot < bound,
        format!("boot peak {boot} B over the tiny boot, bound 0.8 x {file} B file = {bound} B"),
    );

    // A retired version keeps a record, not its weights: reloads do not
    // accumulate packed networks.
    let mut after_two = 0;
    for i in 1..=10 {
        let (status, body) = post(addr, "/reload", b"").unwrap().unwrap();
        check(status == 200, format!("reload {i}: {}", String::from_utf8_lossy(&body)));
        if i == 2 {
            after_two = status_bytes(pid, "VmRSS").unwrap();
        }
    }
    let after_ten = status_bytes(pid, "VmRSS").unwrap();
    check(
        after_ten <= after_two + packed,
        format!("RSS {after_two} B after 2 reloads, {after_ten} B after 10; one packed network is {packed} B"),
    );
    shutdown(child, addr);
    let _ = std::fs::remove_dir_all(&dir);
}
