from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    """The ```python block under README's "Library quick tour" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quick tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_tour_results_match_its_comments():
    # runs the block as printed and holds its commented results to the code,
    # so a renamed method or tag fails here instead of leaving README stale
    block = quick_tour()
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    comments = dict(tuple(part.strip() for part in line.split("#", 1))
                    for line in block.splitlines() if "  # " in line)
    for expr, expected in (("verdict.method, verdict.proven", "('closed-form(rank2-decomposition)', True)"),
                           ("channels.classify_channel(damping).tag", "ChannelTag.ANTI_DEGRADABLE")):
        assert comments[expr] == expected
        assert str(eval(expr, namespace)) == expected
    residuals = "ext.symmetry_residual, ext.reduction_residual"
    assert comments[residuals] == "~1e-16 each"
    assert max(eval(residuals, namespace)) < 1e-12
