"""Frozen reference values shared across the test suite.

The eight values with a closed form beside them (EUCLID4_AT_1, the four
BETA_*, V0_EXAMPLE, V0_UNIT and SLAB_AT_VDSTAR_EXAMPLE, the last from the
frozen VDSTAR_EXAMPLE) are pinned by
test_profiles.py::test_closed_form_reference_values_are_correctly_rounded:
each is the double nearest its closed form evaluated in 50-digit mpmath.
The other values are roots of defining equations, taken from a 50-digit
run (grid-scan bracketing, then root refinement) whose script is not in
the repo; a tests/mp_oracle.py that regenerates them is still to be
written. The tests that use them also re-derive the cheap ones live (grid
scans, mensuration inversion, crossing scans) so the frozen digits never
become the only evidence.
"""

import math

SQRT_PI_RADIUS = 1.0 / math.sqrt(math.pi)  # circle radius of the 4*pi square torus

# Area of the 4-ball of unit volume, 4 * (pi^2/2)^(1/4).
EUCLID4_AT_1 = 5.961800357716361

# Ball/cylinder breakpoint volumes.
BETA_2_1 = 38.482603865284913  # beta(2, 1) = 32 pi^4 / 81
BETA_2_SQ = 6.9109800800493285  # beta(2, 1/sqrt(pi)) = 32 pi^(5/2) / 81
BETA_3_1 = 126.47358296005328  # beta(3, 1) = 6561 pi^2 / 512
BETA_3_SQ = 12.814453125  # beta(3, 1/sqrt(pi)) = 6561 / 512, exact

# Square torus of area 4*pi, euclid_dim 2 (radii 1/sqrt(pi)).
THETA_EXAMPLE = 0.6276232137040965
K_EXAMPLE = 12.566713732690464
CN_EXAMPLE = 2.7026660801518043  # also v_star for this spec
VS_EXAMPLE = 48.704545517001219
V0_EXAMPLE = 24.498786512829488  # = 64 pi^3 / 81
VDSTAR_EXAMPLE = 55.841673483547271
SLAB_AT_VDSTAR_EXAMPLE = 93.905077722339431  # 4 pi sqrt(v_dstar)

# Unit torus (radii 1, 1), euclid_dim 2.
THETA_UNIT = 3.4948119123300106
K_UNIT = 69.975583905909806
VSTAR_UNIT = 26.674245039341173
V0_UNIT = 241.79333118837053  # = 64 pi^5 / 81
VDSTAR_UNIT = 551.13522637741308

# Unit torus at euclid_dim 3 (feeds the three-circle pipeline).
VSTAR_UNIT_N3 = 79.265365592846875
VDSTAR_UNIT_N3 = 2233.0113421750548

# Unit three-circle torus (radii 1, 1, 1), euclid_dim 2.
W_STAR_UNIT3 = 26.674245039341173
ETA_UNIT3 = 1.4845478291504706
C_STAR_UNIT3 = 50.379394420381406
U0_UNIT3 = 11.851656474095182
U_SLAB_UNIT3 = 5958.0076975431590
