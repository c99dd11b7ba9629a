//! Both lookups read a key's exact entry the same way: an entry that exists
//! but cannot be read is a miss, and stays on disk.

use tssa_store::PlanStore;

const KEY: u64 = 0x5eed;
const ROSTER: u64 = 7;

#[test]
fn an_unreadable_entry_is_a_miss_for_both_lookups_and_stays() {
    let dir = std::env::temp_dir().join(format!("tssa-store-exact-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = PlanStore::open(&dir).expect("open the store");
    let entry = store.path_for(KEY);
    std::fs::create_dir(&entry).expect("a directory where the entry belongs");

    assert!(store.load(KEY, ROSTER).is_none());
    let stats = store.stats();
    assert_eq!(
        (stats.disk_misses, stats.corrupt_evicted),
        (1, 0),
        "{stats:?}"
    );
    assert!(entry.is_dir(), "load removed the unreadable entry");

    assert!(store.load_class(KEY, 1, ROSTER, |_| true).is_none());
    let stats = store.stats();
    assert_eq!(
        (stats.disk_misses, stats.corrupt_evicted),
        (2, 0),
        "{stats:?}"
    );
    assert!(entry.is_dir(), "load_class removed the unreadable entry");

    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
