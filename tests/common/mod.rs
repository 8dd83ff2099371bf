//! Support shared by the integration suites that include it with
//! `mod common;`.

use std::cell::Cell;
use std::sync::Once;

thread_local! {
    static PANICS: Cell<usize> = const { Cell::new(0) };
}

/// Run `f` and count the panics raised on the current thread while it
/// runs — caught ones included, since the count comes from the panic
/// hook. The first call installs a hook that bumps a thread-local
/// counter and then runs the previous hook, so panic output is
/// unchanged and tests running on other threads do not disturb the
/// count.
pub fn count_panics<T>(f: impl FnOnce() -> T) -> (T, usize) {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            PANICS.with(|n| n.set(n.get() + 1));
            prev(info);
        }));
    });
    let before = PANICS.with(Cell::get);
    let out = f();
    (out, PANICS.with(Cell::get) - before)
}
