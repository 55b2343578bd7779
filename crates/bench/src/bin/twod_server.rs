//! Standalone `twod-server`: serves a 2D-protected banked cache over
//! TCP until killed.
//!
//! ```text
//! cargo run --release -p bench --bin twod_server -- --addr 127.0.0.1:7401
//! cargo run --release -p bench --bin twod_server -- --banks 8 --no-scrubber
//! ```
//!
//! Prints the bound address (useful with port `0`) and, every few
//! seconds, a one-line stats heartbeat. The protocol, backpressure, and
//! degraded-mode contracts are documented in the README's "Network
//! service" section.

use bench::{parse_count, take_value, usage_error};
use cachesim::net::{CacheServer, ServerConfig};
use std::sync::Arc;
use std::time::Duration;
use twod_cache::{CacheConfig, ConcurrentBankedCache, Scrubber, ScrubberConfig, TwoDScheme};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:7401".to_string();
    let mut banks = 8usize;
    let mut sets = 64usize;
    let mut ways = 4usize;
    let mut scrubber_on = true;
    let mut heartbeat_secs = 5u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = take_value(&mut it, "--addr"),
            // Bank count and per-bank geometry: zero of any of them is
            // no cache.
            "--banks" => banks = parse_count(&take_value(&mut it, "--banks"), "--banks"),
            "--sets" => sets = parse_count(&take_value(&mut it, "--sets"), "--sets"),
            "--ways" => ways = parse_count(&take_value(&mut it, "--ways"), "--ways"),
            "--no-scrubber" => scrubber_on = false,
            "--heartbeat-secs" => {
                heartbeat_secs = take_value(&mut it, "--heartbeat-secs")
                    .parse()
                    .unwrap_or_else(|e| usage_error(&format!("--heartbeat-secs: {e}")));
            }
            "--help" | "-h" => {
                println!(
                    "usage: twod_server [--addr A] [--banks N] [--sets N] [--ways N] \
                     [--no-scrubber] [--heartbeat-secs N]"
                );
                return;
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
    }

    let config = CacheConfig {
        sets,
        ways,
        data_scheme: TwoDScheme::l1_paper(),
        tag_scheme: TwoDScheme {
            data_bits: 50,
            ..TwoDScheme::l1_paper()
        },
    };
    let cache = Arc::new(ConcurrentBankedCache::new(config, banks));
    let scrubber = scrubber_on.then(|| {
        Arc::new(Scrubber::spawn(
            Arc::clone(&cache),
            ScrubberConfig::default(),
        ))
    });
    let server = CacheServer::spawn(
        Arc::clone(&cache),
        scrubber.clone(),
        &addr,
        ServerConfig::default(),
    )
    .unwrap_or_else(|e| {
        eprintln!("twod-server: bind {addr}: {e}");
        std::process::exit(1);
    });
    println!(
        "twod-server: listening on {} ({} bank(s), {}x{} per bank, scrubber {})",
        server.local_addr(),
        banks,
        sets,
        ways,
        if scrubber_on { "on" } else { "off" },
    );
    loop {
        std::thread::sleep(Duration::from_secs(heartbeat_secs.max(1)));
        let s = server.stats();
        let h = server.health();
        println!(
            "twod-server: {} req ({} busy, {} degraded, {} fault, {} bad), \
             {} conn accepted / {} reaped, {} bank(s) degraded",
            s.requests,
            s.busy_sheds,
            s.degraded_sheds,
            s.faults,
            s.bad_requests,
            s.connections_accepted,
            s.connections_reaped,
            h.degraded_banks(),
        );
    }
}
