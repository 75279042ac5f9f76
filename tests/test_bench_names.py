"""The names the benchmark under ``bench/`` imports from the package.

``bench/checks.py`` and ``bench/tracing.py`` look these up by name, so a
change that removes or reshapes one breaks every benchmark run.
"""

import inspect

import numpy as np

import multiprobe.validate as validate
from multiprobe import cli
from multiprobe.bounds import FidelityTable, block_subfidelity, fidelity_table_blocks
from multiprobe.channels import ChannelFamily, apply_mode_channels
from multiprobe.gaussian import CovMatrix
from multiprobe.imagespace import cpf_space
from multiprobe.probes import BlockDescriptor, ProbeSpec, ProbeState, assemble_probe


def test_the_names_the_benchmark_imports_exist():
    assert list(inspect.signature(block_subfidelity).parameters) == ["desc", "family", "v", "u", "d"]
    desc = BlockDescriptor("ghz", (0, 1), mu=20.5)
    family = ChannelFamily.pure_loss(0.99, 0.97)
    assert 0.0 < block_subfidelity(desc, family, 0, 1, 1) < 1.0
    # traced per call and tagged with the table's pattern count
    table = fidelity_table_blocks(cpf_space(2, 1).patterns, None, [desc], family)
    assert isinstance(table, FidelityTable) and table.n_patterns == 2
    assert callable(cli.main)
    # the tracer swaps wrapped suites into the list in place
    assert isinstance(validate._SUITES, list) and all(map(callable, validate._SUITES))
    assert callable(validate.suite_mutual_vs_bruteforce)
    # the tracer wraps CovMatrix.__init__ and these two functions by name
    assert callable(CovMatrix.__init__)
    assert list(inspect.signature(apply_mode_channels).parameters) == ["state", "taus", "nus"]
    out = apply_mode_channels(CovMatrix(0.5 * np.eye(2)), [0.9], [0.05])
    assert isinstance(out, CovMatrix) and out.n_modes == 1
    assert list(inspect.signature(assemble_probe).parameters) == ["spec"]
    assert isinstance(assemble_probe(ProbeSpec(2, (desc,))), ProbeState)
