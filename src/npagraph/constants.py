"""Values the command-line parser needs, each defined here once.

This module imports nothing, so `npagraph.cli` builds its parser, and
rejects a setting, before numpy or any numeric module loads; `models`,
`solver` and `calibrate` take these values from here.
"""

# Forms of the directed recurrence solve_arc_dd can run, the default first.
VARIANTS = ("printed", "mean-weight")
R_MIN = 1  # least increment arc count, and so the minimum degree of every fit
TOTAL_N = 100000  # a preset's, generate's and a composite fit's vertex count
GOWALLA_AER_MEAN_DEGREE = 2.75  # the gowalla preset's AER mean degree a
PRESET_NAMES = ("gowalla", "brightkite")  # the keys of models.PRESETS
RHO_REFINE_FACTOR = 5  # a composite's rho lattice is this much finer than rho_step
