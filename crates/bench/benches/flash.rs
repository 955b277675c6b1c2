//! Flash fast-path costs across the three backends: the in-memory
//! simulator, the file-backed simulator (superblock + pwrite per page),
//! and the real-I/O device (measured syscall path). FTL writes with GC
//! ride along on the in-memory device.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nemo_flash::{
    ConventionalSsd, Geometry, LatencyModel, Nanos, PageAddr, RealFlash, RealFlashOptions,
    SimFlash, ZoneId, ZonedFlash,
};
use std::hint::black_box;

/// Ring-appends one page, resetting the next zone when the ring wraps —
/// shared drive loop for the append benchmarks of every backend.
fn append_ring<D: ZonedFlash>(dev: &mut D, zone: &mut u32, page: &[u8]) {
    if dev.append(ZoneId(*zone), page, Nanos::ZERO).is_err() {
        *zone = (*zone + 1) % dev.geometry().zone_count();
        if dev.append(ZoneId(*zone), page, Nanos::ZERO).is_err() {
            dev.reset_zone(ZoneId(*zone), Nanos::ZERO).unwrap();
            dev.append(ZoneId(*zone), page, Nanos::ZERO).unwrap();
        }
    }
}

fn bench_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("nemo_flash_bench");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn bench_flash(c: &mut Criterion) {
    let mut g = c.benchmark_group("flash");
    let geom = Geometry::new(4096, 256, 64, 8);

    g.throughput(Throughput::Bytes(4096));
    g.bench_function("append_page", |b| {
        let mut dev = SimFlash::with_latency(geom, LatencyModel::zero());
        let page = vec![7u8; 4096];
        let mut zone = 0u32;
        b.iter(|| append_ring(&mut dev, &mut zone, black_box(&page)));
    });

    g.throughput(Throughput::Bytes(4096));
    g.bench_function("read_page", |b| {
        let mut dev = SimFlash::with_latency(geom, LatencyModel::zero());
        dev.append(ZoneId(0), &vec![7u8; 4096 * 64], Nanos::ZERO)
            .unwrap();
        let mut p = 0u32;
        let mut buf = vec![0u8; 4096];
        b.iter(|| {
            dev.read_pages_into(PageAddr::new(0, p % 64), 1, &mut buf, Nanos::ZERO)
                .unwrap();
            p += 1;
            black_box(buf[0])
        });
    });

    g.throughput(Throughput::Bytes(4096));
    g.bench_function("append_page_file", |b| {
        let path = bench_dir().join("append.img");
        let mut dev = SimFlash::file_backed(geom, LatencyModel::zero(), &path).unwrap();
        let page = vec![7u8; 4096];
        let mut zone = 0u32;
        b.iter(|| append_ring(&mut dev, &mut zone, black_box(&page)));
    });

    g.throughput(Throughput::Bytes(4096));
    g.bench_function("read_page_file", |b| {
        let path = bench_dir().join("read.img");
        let mut dev = SimFlash::file_backed(geom, LatencyModel::zero(), &path).unwrap();
        dev.append(ZoneId(0), &vec![7u8; 4096 * 64], Nanos::ZERO)
            .unwrap();
        let mut buf = vec![0u8; 4096];
        let mut p = 0u32;
        b.iter(|| {
            dev.read_pages_into(PageAddr::new(0, p % 64), 1, &mut buf, Nanos::ZERO)
                .unwrap();
            p += 1;
            black_box(buf[0])
        });
    });

    g.throughput(Throughput::Bytes(4096));
    g.bench_function("append_page_real", |b| {
        let path = bench_dir().join("append_real.img");
        let mut dev = RealFlash::create(geom, &path, RealFlashOptions::default()).unwrap();
        let page = vec![7u8; 4096];
        let mut zone = 0u32;
        b.iter(|| append_ring(&mut dev, &mut zone, black_box(&page)));
    });

    g.throughput(Throughput::Bytes(4096));
    g.bench_function("read_page_real", |b| {
        let path = bench_dir().join("read_real.img");
        let mut dev = RealFlash::create(geom, &path, RealFlashOptions::default()).unwrap();
        dev.append(ZoneId(0), &vec![7u8; 4096 * 64], Nanos::ZERO)
            .unwrap();
        let mut buf = vec![0u8; 4096];
        let mut p = 0u32;
        b.iter(|| {
            dev.read_pages_into(PageAddr::new(0, p % 64), 1, &mut buf, Nanos::ZERO)
                .unwrap();
            p += 1;
            black_box(buf[0])
        });
    });

    g.throughput(Throughput::Bytes(4096));
    g.bench_function("ftl_write_with_gc", |b| {
        let mut ssd = ConventionalSsd::new(geom, LatencyModel::zero(), 0.25);
        let page = vec![3u8; 4096];
        let n = ssd.user_page_count();
        let mut rng = nemo_util::Xoshiro256StarStar::seed_from_u64(1);
        b.iter(|| {
            ssd.write_page(rng.next_below(n), black_box(&page), Nanos::ZERO)
                .unwrap();
        });
    });

    g.finish();
}

criterion_group!(benches, bench_flash);
criterion_main!(benches);
