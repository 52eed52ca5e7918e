//! The 12 catalog functions' boot images, pinned.
//!
//! A boot image is the post-boot guest memory every record phase starts
//! from: guest kernel, runtime pool, cold filler and stable data. Each
//! function's image is pinned by its non-zero page count and checksum, so
//! a change to how images are built or stored (write order, last-write
//! semantics, zero handling, iteration order) cannot alter one unnoticed.

/// (function, non-zero pages, checksum).
const PINS: [(&str, u64, u64); 12] = [
    ("hello-world", 50_505, 0x0f04_fa45_b004_7df6),
    ("read-list", 181_648, 0x51f6_444d_37e8_ae3b),
    ("mmap", 50_647, 0x148a_698c_73b0_dfa1),
    ("image", 54_696, 0x0e23_227a_e408_c162),
    ("json", 51_306, 0xfdaf_ab0d_a990_7b2c),
    ("pyaes", 51_146, 0x15c1_e7bb_d578_a300),
    ("chameleon", 53_747, 0x196f_ae9e_b9ee_0a45),
    ("matmul", 55_754, 0x7e5f_7aa7_5cd2_c2d1),
    ("ffmpeg", 56_269, 0x27a5_e4fb_ef4e_9167),
    ("compression", 52_224, 0xc9c8_e663_8a90_ed19),
    ("recognition", 102_039, 0x7d2c_011f_1ced_c846),
    ("pagerank", 54_275, 0xf6c2_6ded_8e59_afcd),
];

#[test]
fn catalog_boot_images_are_pinned() {
    let functions = faas_workloads::catalog::all_functions();
    let names: Vec<&str> = functions.iter().map(|f| f.name()).collect();
    let pinned: Vec<&str> = PINS.iter().map(|&(name, _, _)| name).collect();
    assert_eq!(names, pinned, "catalog and pins list the same functions");
    for (f, &(name, pages, checksum)) in functions.iter().zip(&PINS) {
        let image = f.boot_image();
        assert_eq!(
            (image.nonzero_count(), image.checksum()),
            (pages, checksum),
            "{name}: boot image drifted"
        );
    }
}
