//! Bad command-line input exits 2 with a one-line message, never a
//! panic: `twod_server` with a zero bank count or zero per-bank geometry.

use std::process::Command;

#[test]
fn twod_server_rejects_zero_geometry() {
    for flag in ["--banks", "--sets", "--ways"] {
        let out = Command::new(env!("CARGO_BIN_EXE_twod_server"))
            .args(["--addr", "127.0.0.1:0", flag, "0"])
            .output()
            .expect("run twod_server");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} 0: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag} 0: {stderr}");
    }
}
