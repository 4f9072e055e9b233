//! The correctness checker: what a counter's clients may and may not see.
//!
//! Fed every acked value of a trial, from the first op on a fresh server
//! to the last reply drained. The contract: the values granted on a key
//! are distinct and gap-free (exactly 0, 1, …, N−1 in some order), and a
//! `Read` of a key never goes backwards on a connection and never
//! exceeds the key's final value.

/// Values beyond this are rejected as garbage rather than tracked: no
/// trial grants four billion values, and the bitmap must stay bounded.
const VALUE_LIMIT: u64 = 1 << 32;

/// The values granted on one key: a bitmap, so memory does not depend on
/// how many values a trial happened to collect.
#[derive(Debug, Default, Clone)]
struct Granted {
    seen: Vec<u64>,
    distinct: u64,
    duplicates: u64,
    out_of_range: u64,
    highest: Option<u64>,
}

impl Granted {
    fn record(&mut self, value: u64) {
        if value >= VALUE_LIMIT {
            self.out_of_range += 1;
            return;
        }
        let (word, bit) = ((value / 64) as usize, value % 64);
        if word >= self.seen.len() {
            self.seen.resize((word + 1).next_power_of_two(), 0);
        }
        if self.seen[word] & (1 << bit) != 0 {
            self.duplicates += 1;
            return;
        }
        self.seen[word] |= 1 << bit;
        self.distinct += 1;
        self.highest = Some(self.highest.map_or(value, |h| h.max(value)));
    }

    /// The key's final value: how many values it granted.
    fn final_value(&self) -> u64 {
        self.distinct
    }

    fn gaps(&self) -> u64 {
        self.highest.map_or(0, |h| h + 1 - self.distinct)
    }
}

#[derive(Debug, Default, Clone)]
struct KeyState {
    granted: Granted,
    /// Last `Read` value seen per connection.
    last_read: Vec<Option<u64>>,
    highest_read: u64,
    backwards_reads: u64,
}

/// Collects one trial's acked values and renders the verdict.
#[derive(Debug, Default, Clone)]
pub struct Checker {
    keys: Vec<KeyState>,
}

impl Checker {
    pub fn new() -> Checker {
        Checker::default()
    }

    fn key(&mut self, key: u64) -> &mut KeyState {
        let key = usize::try_from(key).unwrap_or(usize::MAX).min(1 << 16);
        if key >= self.keys.len() {
            self.keys.resize(key + 1, KeyState::default());
        }
        &mut self.keys[key]
    }

    /// An inc on `key` (0 for the unkeyed counter) was acked with `value`.
    pub fn inc(&mut self, key: u64, value: u64) {
        self.key(key).granted.record(value);
    }

    /// A `Read` of `key` on connection `conn` returned `value`.
    pub fn read(&mut self, conn: usize, key: u64, value: u64) {
        let state = self.key(key);
        if conn >= state.last_read.len() {
            state.last_read.resize(conn + 1, None);
        }
        if state.last_read[conn].is_some_and(|last| value < last) {
            state.backwards_reads += 1;
        }
        state.last_read[conn] = Some(value);
        state.highest_read = state.highest_read.max(value);
    }

    /// Values granted so far, all keys.
    pub fn granted(&self) -> u64 {
        self.keys.iter().map(|k| k.granted.distinct).sum()
    }

    /// Every violation of the contract, one line each; empty when the
    /// trial was correct. Call once every reply has been drained.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (key, state) in self.keys.iter().enumerate() {
            let g = &state.granted;
            if g.duplicates > 0 {
                out.push(format!("key {key}: {} values granted twice", g.duplicates));
            }
            if g.gaps() > 0 {
                out.push(format!(
                    "key {key}: {} values missing below the highest granted ({})",
                    g.gaps(),
                    g.highest.unwrap_or(0)
                ));
            }
            if g.out_of_range > 0 {
                out.push(format!("key {key}: {} values beyond 2^32", g.out_of_range));
            }
            if state.backwards_reads > 0 {
                out.push(format!("key {key}: {} reads went backwards", state.backwards_reads));
            }
            if state.highest_read > g.final_value() {
                out.push(format!(
                    "key {key}: a read returned {} but the key's final value is {}",
                    state.highest_read,
                    g.final_value()
                ));
            }
        }
        out
    }
}
