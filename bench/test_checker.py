"""Tests of the benchmark's checker: the simulator against the paper's worked
example, and every check against a planted wrong answer.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

import random
import unittest

import checker
import workloads


class SimulatorTest(unittest.TestCase):
    def test_paper_example(self):
        gauss, perm = checker.simulate(4, ((1, 2), (2, 4), (1, 3)))
        self.assertEqual(gauss, [(1, 2), (1, 3, 4), (2, 3, 4)])
        self.assertEqual(perm, (4, 3, 1, 2))

    def test_parity_cancels_repeated_letters(self):
        self.assertEqual(checker.parity(4, ((1, 3), (1, 3))), frozenset())
        self.assertEqual(checker.parity(4, ((1, 2), (2, 4), (1, 3))),
                         frozenset({(1, 2), (1, 3, 4), (2, 3, 4)}))

    def test_relation_moves_keep_invariants(self):
        rng = random.Random(3)
        for n in (4, 6, 9):
            u = workloads.random_word(rng, n, 30)
            v = workloads.relation_moves(rng, n, u, moves=60, max_length=40)
            self.assertEqual(checker.permutation(n, u), checker.permutation(n, v))
            self.assertEqual(checker.parity(n, u), checker.parity(n, v))

    def test_pure_odd_word(self):
        rng = random.Random(5)
        for n in (4, 6, 12):
            w = workloads.pure_odd_word(rng, n, n * n)
            self.assertEqual(checker.permutation(n, w), tuple(range(1, n + 1)))
            self.assertTrue(checker.parity(n, w))


class PlantedWrongAnswerTest(unittest.TestCase):
    def test_flipped_equality(self):
        self.assertTrue(checker.check_decision(True, True))
        self.assertFalse(checker.check_decision(False, True))
        self.assertFalse(checker.check_decision(True, False))

    def test_canonical_with_one_letter_changed(self):
        word = ((3, 4), (1, 2))
        canon = ((1, 2), (3, 4))
        self.assertTrue(checker.check_canonical(4, word, canon, canon, canon))
        wrong = ((1, 2), (2, 4))
        self.assertFalse(checker.check_canonical(4, word, wrong, wrong))
        self.assertFalse(checker.check_canonical(4, word, wrong, canon))
        self.assertFalse(checker.check_canonical(4, word, canon, canon, wrong))

    def test_odd_order(self):
        witness = ((1, 2), (1, 4))
        self.assertTrue(checker.check_order(4, witness, 4, 4))
        self.assertFalse(checker.check_order(4, witness, 3))
        self.assertFalse(checker.check_order(4, ((1, 2),), 3))
        self.assertFalse(checker.check_order(4, witness, 8, 4))
        self.assertFalse(checker.check_order(4, witness, None, 4))

    def test_wrong_coset_count(self):
        self.assertTrue(checker.check_rs_counts(4, 6, 16, 24, 98, 338))
        self.assertTrue(checker.check_rs_counts(5, 10, 40, 120, 962, 4562))
        self.assertFalse(checker.check_rs_counts(4, 6, 16, 23, 98, 338))
        self.assertFalse(checker.check_rs_counts(4, 6, 16, 24, 99, 338))

    def test_render_with_wrong_final_track(self):
        # s(1,3) on three strands: strand 1 ends on track 3 and strand 3 on track 1.
        good = ('<svg><polyline fill="none" points="0,12 12,12 30,24 48,36 60,36"/>'
                '<polyline fill="none" points="0,24 12,24 30,24 48,24 60,24"/>'
                '<polyline fill="none" points="0,36 12,36 30,24 48,12 60,12"/></svg>')
        self.assertTrue(checker.check_render(3, ((1, 3),), good))
        swapped = good.replace("48,24 60,24", "48,12 60,12", 1).replace(
            "48,12 60,12\"/></svg>", "48,24 60,24\"/></svg>")
        self.assertFalse(checker.check_render(3, ((1, 3),), swapped))
        self.assertFalse(checker.check_render(4, ((1, 3),), good))

    def test_abelianization(self):
        pj4 = ("alpha", "beta", "gamma", "delta", "epsilon")
        relator = [("alpha", 1), ("gamma", 1), ("epsilon", 1), ("beta", 1), ("epsilon", 1),
                   ("alpha", -1), ("delta", -1), ("beta", 1), ("gamma", 1), ("delta", -1)]
        self.assertTrue(checker.check_pj4_abelian(pj4, [relator]))
        self.assertFalse(checker.check_pj4_abelian(pj4, [relator[:-1]]))
        self.assertFalse(checker.check_pj4_abelian(pj4, [relator + [("beta", 1)]]))


if __name__ == "__main__":
    unittest.main()
