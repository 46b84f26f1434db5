//! Output checking, built into every run: each operation (SUBMIT, STATUS,
//! query outcome) is attempted-counted, and any violated invariant makes
//! it a failed operation, reported with the offending query id.

use crate::setup::Oracle;
use qp_service::{QueryId, QueryState, StatusLine};

/// How many failure descriptions are kept for printing.
const KEEP_FAILURES: usize = 20;

/// Slack for Property 4 over the wire: estimates are rendered with six
/// decimals, so a reading may be rounded down by up to half a unit in
/// the sixth place.
const P4_EPS: f64 = 1e-6;

/// Attempted/failed operation counts of one run.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(why);
            }
        }
    }

    /// Folds in the counts another thread kept.
    pub fn merge(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = KEEP_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// Per-query STATUS history, checked reply by reply and once more when
/// the true total is known.
pub struct QueryCheck {
    id: QueryId,
    last_curr: u64,
    /// `(curr, pmax)` of every distinct reading, for the Property 4 replay.
    readings: Vec<(u64, f64)>,
}

impl QueryCheck {
    pub fn new(id: QueryId) -> QueryCheck {
        QueryCheck {
            id,
            last_curr: 0,
            readings: Vec::new(),
        }
    }

    /// Checks one STATUS reply: right id, no failure state, monotone
    /// `curr`, `lb ≤ ub`.
    pub fn observe(&mut self, st: &StatusLine) -> Result<(), String> {
        let id = self.id;
        if st.id != id {
            return Err(format!("{id}: STATUS answered for {}", st.id));
        }
        if st.state.is_terminal() && st.state != QueryState::Finished {
            return Err(format!("{id}: terminal state {}", st.state));
        }
        if let Some(curr) = st.curr {
            if curr < self.last_curr {
                return Err(format!(
                    "{id}: curr went backwards {} -> {curr}",
                    self.last_curr
                ));
            }
            if let Some(pmax) = st.estimate("pmax") {
                if self.readings.last().map(|r| r.0) != Some(curr) {
                    self.readings.push((curr, pmax));
                }
            }
            self.last_curr = curr;
        }
        if let (Some(lb), Some(ub)) = (st.lb, st.ub) {
            if lb > ub {
                return Err(format!("{id}: lb {lb} > ub {ub}"));
            }
        }
        Ok(())
    }

    /// Checks the query outcome against the oracle, then replays every
    /// earlier `pmax` reading against the now-known total (Property 4:
    /// `pmax` never under-reports progress).
    pub fn finish(&self, st: &StatusLine, oracle: &Oracle) -> Result<(), String> {
        let id = self.id;
        if st.state != QueryState::Finished {
            return Err(format!("{id} (Q{}): ended {}", oracle.q, st.state));
        }
        if st.total_getnext != Some(oracle.total_getnext) {
            return Err(format!(
                "{id} (Q{}): total_getnext {:?}, oracle {}",
                oracle.q, st.total_getnext, oracle.total_getnext
            ));
        }
        if st.rows != Some(oracle.rows) {
            return Err(format!(
                "{id} (Q{}): rows {:?}, oracle {}",
                oracle.q, st.rows, oracle.rows
            ));
        }
        let total = oracle.total_getnext.max(1) as f64;
        for &(curr, pmax) in &self.readings {
            let progress = curr as f64 / total;
            if pmax + P4_EPS < progress {
                return Err(format!(
                    "{id} (Q{}): Property 4 violated at curr={curr}: pmax {pmax} < progress {progress:.6}",
                    oracle.q
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> Oracle {
        Oracle {
            q: 6,
            sql: "",
            total_getnext: 1000,
            rows: 1,
        }
    }

    fn status(line: &str) -> StatusLine {
        StatusLine::parse(line).unwrap()
    }

    #[test]
    fn clean_history_passes() {
        let mut c = QueryCheck::new(QueryId(3));
        let running = status(
            "OK q3 RUNNING health=ok trust=ok curr=100 lb=500 ub=2000 dne=0.1 pmax=0.2 safe=0.1",
        );
        assert!(c.observe(&running).is_ok());
        let done = status("OK q3 FINISHED health=ok trust=ok curr=1000 lb=1000 ub=1000 dne=1.0 pmax=1.0 safe=1.0 rows=1 total=1000");
        assert!(c.observe(&done).is_ok());
        assert!(c.finish(&done, &oracle()).is_ok());
    }

    #[test]
    fn violations_name_the_query() {
        let mut c = QueryCheck::new(QueryId(3));
        c.observe(&status("OK q3 RUNNING curr=500 lb=500 ub=2000 pmax=0.3"))
            .unwrap();
        let back = c
            .observe(&status("OK q3 RUNNING curr=400 lb=500 ub=2000 pmax=0.3"))
            .unwrap_err();
        assert!(back.contains("q3") && back.contains("backwards"), "{back}");
        let env = c
            .observe(&status("OK q3 RUNNING curr=600 lb=900 ub=800 pmax=0.7"))
            .unwrap_err();
        assert!(env.contains("lb 900 > ub 800"), "{env}");
        assert!(c
            .observe(&status("OK q4 RUNNING curr=600"))
            .unwrap_err()
            .contains("answered for q4"));

        let done = status("OK q3 FINISHED curr=1000 lb=1000 ub=1000 pmax=1.0 rows=1 total=1000");
        // The curr=500 reading claimed pmax=0.3 < 0.5 true progress.
        let p4 = c.finish(&done, &oracle()).unwrap_err();
        assert!(p4.contains("Property 4") && p4.contains("Q6"), "{p4}");

        let wrong = status("OK q3 FINISHED curr=999 pmax=1.0 rows=1 total=999");
        assert!(QueryCheck::new(QueryId(3))
            .finish(&wrong, &oracle())
            .unwrap_err()
            .contains("oracle 1000"));
        let failed = status("OK q3 FAILED error=\"boom\"");
        assert!(QueryCheck::new(QueryId(3)).observe(&failed).is_err());
    }
}
