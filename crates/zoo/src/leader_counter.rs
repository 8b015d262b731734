//! A leader-assisted binary counter computing `x ≥ 2^k`.
//!
//! The protocol has `k` *bit leaders* — auxiliary agents that together form a
//! `k`-bit binary counter — plus input tokens that increment the counter.
//! When the counter overflows (i.e. `2^k` tokens have been absorbed), an
//! accepting state `F` is produced and floods the population.
//!
//! This family exercises the protocols-with-leaders code paths of
//! Sections 2–4 (initial configurations `L + m·x`, the definition of `BBL`).
//! It has `Θ(k) = Θ(log η)` states, like the leaderless `P'_k`; the
//! doubly-succinct `O(log log η)` construction of Blondin et al. [11, 12]
//! (which simulates bounded counter machines) is *not* reproduced here — see
//! DESIGN.md for the substitution note.

use popproto_model::{Output, Protocol, ProtocolBuilder};

/// Builds the leader-assisted counter protocol computing `x ≥ 2^k` with `k`
/// bit leaders and `3k + 2` states.
///
/// # Panics
///
/// Panics if `k == 0`.
///
/// # Examples
///
/// ```
/// use popproto_zoo::leader_counter;
/// let p = leader_counter(3); // x ≥ 8
/// assert!(!p.is_leaderless());
/// assert_eq!(p.leaders().size(), 3);
/// ```
pub fn leader_counter(k: u32) -> Protocol {
    assert!(k >= 1, "leader counter requires at least one bit");
    let mut b = ProtocolBuilder::new(format!("leader_counter({k}) [x >= 2^{k}]"));
    // Input tokens and the spent-token state.
    let token = b.add_state("token", Output::False);
    let spent = b.add_state("spent", Output::False);
    // The flooding accept state.
    let accept = b.add_state("F", Output::True);
    // Bit leaders: bit_i is either 0 or 1.
    let bit0: Vec<_> = (0..k)
        .map(|i| b.add_state(format!("bit{i}=0"), Output::False))
        .collect();
    let bit1: Vec<_> = (0..k)
        .map(|i| b.add_state(format!("bit{i}=1"), Output::False))
        .collect();
    // Carries in flight towards bit i (a carry into bit 0 is the token itself).
    let carry: Vec<_> = (1..k)
        .map(|i| b.add_state(format!("carry{i}"), Output::False))
        .collect();
    let carry_into = |i: usize| if i == 0 { token } else { carry[i - 1] };

    for i in 0..k as usize {
        let incoming = carry_into(i);
        // Incoming carry meets bit i = 0: set the bit, absorb the carry.
        b.add_transition((incoming, bit0[i]), (spent, bit1[i]))
            .expect("states were just declared");
        // Incoming carry meets bit i = 1: clear the bit, propagate the carry.
        let outgoing = if i + 1 < k as usize {
            carry_into(i + 1)
        } else {
            accept
        };
        b.add_transition((incoming, bit1[i]), (outgoing, bit0[i]))
            .expect("states were just declared");
    }
    // The accept state floods the population.
    let everyone: Vec<_> = std::iter::once(token)
        .chain(std::iter::once(spent))
        .chain(bit0.iter().copied())
        .chain(bit1.iter().copied())
        .chain(carry.iter().copied())
        .collect();
    for q in everyone {
        b.add_transition_idempotent((q, accept), (accept, accept))
            .expect("states were just declared");
    }
    // One leader per bit, initially 0.
    for &q in &bit0 {
        b.add_leader(q, 1);
    }
    b.set_input_state("x", token);
    b.build()
        .expect("leader counter construction is well-formed")
}

/// The threshold computed by [`leader_counter`]`(k)`, i.e. `2^k`.
///
/// Public for experiment E1, whose witness table records this threshold
/// for every leader-counter row.
pub fn leader_counter_threshold(k: u32) -> u64 {
    1u64 << k
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape() {
        for k in 1..=5u32 {
            let p = leader_counter(k);
            assert_eq!(p.num_states() as u32, 3 * k + 2);
            assert_eq!(p.leaders().size() as u32, k);
            assert!(!p.is_leaderless());
            assert!(p.is_unary());
        }
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_panics() {
        let _ = leader_counter(0);
    }

    #[test]
    fn initial_configuration_contains_leaders_and_tokens() {
        let p = leader_counter(2);
        let ic = p.initial_config_unary(3);
        assert_eq!(ic.size(), 5); // 2 leaders + 3 tokens
        assert_eq!(ic.get(p.state_by_name("token").unwrap()), 3);
        assert_eq!(ic.get(p.state_by_name("bit0=0").unwrap()), 1);
        assert_eq!(ic.get(p.state_by_name("bit1=0").unwrap()), 1);
    }

    #[test]
    fn counting_two_tokens_with_one_bit_accepts() {
        // k = 1: threshold 2.  One token sets the bit, the second overflows to F.
        let p = leader_counter(1);
        let ic = p.initial_config_unary(2);
        // token + bit0=0 → spent + bit0=1
        let step1 = p.successors(&ic);
        assert_eq!(step1.len(), 1);
        // token + bit0=1 → F + bit0=0
        let step2 = p.successors(&step1[0]);
        assert_eq!(step2.len(), 1);
        let accept = p.state_by_name("F").unwrap();
        assert_eq!(step2[0].get(accept), 1);
    }

    #[test]
    fn one_token_with_one_bit_never_accepts() {
        let p = leader_counter(1);
        let ic = p.initial_config_unary(1);
        let accept = p.state_by_name("F").unwrap();
        // Exhaust the (tiny) reachable space by hand: the only step sets the bit.
        let step1 = p.successors(&ic);
        assert_eq!(step1.len(), 1);
        assert_eq!(step1[0].get(accept), 0);
        assert!(p.successors(&step1[0]).is_empty());
    }

    #[test]
    fn carry_chain_state_names_exist() {
        let p = leader_counter(3);
        assert!(p.state_by_name("carry1").is_some());
        assert!(p.state_by_name("carry2").is_some());
        assert!(p.state_by_name("carry3").is_none());
    }

    #[test]
    fn threshold_helper() {
        assert_eq!(leader_counter_threshold(1), 2);
        assert_eq!(leader_counter_threshold(4), 16);
    }
}
