//! Cross-process tests for `adec serve`: spawn the real binary against a
//! real checkpoint file, drive it over TCP, and check the exit-code
//! contract (0 on drained shutdown, 2 usage, 4 checkpoint, 6 serve).

// Test code: unwraps are the assertions themselves here.
#![allow(clippy::unwrap_used, clippy::panic)]

use adec_loadgen::client::{get, post};
use adec_loadgen::csv_rows;
use adec_nn::{Activation, Checkpoint, Mlp, ParamStore};
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

/// Writes a tiny trained-looking checkpoint to `path`.
fn write_checkpoint(path: &Path, phase: &str, with_centroids: bool) {
    let mut rng = SeedRng::new(33);
    let mut store = ParamStore::new();
    Mlp::new(&mut store, &[INPUT_DIM, 5, 3], Activation::Relu, Activation::Linear, &mut rng);
    Mlp::new(&mut store, &[3, 5, INPUT_DIM], Activation::Relu, Activation::Linear, &mut rng);
    if with_centroids {
        store.register("dec.centroids", Matrix::randn(4, 3, 0.0, 1.0, &mut rng));
    }
    let ck = Checkpoint {
        phase: phase.into(),
        iter: 5,
        rng: rng.export_state(),
        store,
        opts: vec![],
        extra: vec![],
        profile: None,
    };
    ck.save_atomic(path).unwrap();
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
