import pytest

from fimscore import models


@pytest.fixture
def chunk_spy(monkeypatch):
    """``chunk_spy(model, k, group_size)`` caps models.sweep_chunks chunks at
    k groups of ``model``, of the smallest size when a sweep has several
    (so grad_groups chunks too, and with it score,
    score_batch and loglik_and_grad_sum) and returns the list that records
    the group count of every factor_sweep and draw_sweep call the model then
    makes, a factor_sweep made inside a draw_sweep not counted again."""

    def install(model, groups_per_chunk, group_size=1):
        monkeypatch.setattr(models, "CHUNK_FLOATS",
                            groups_per_chunk * model.params.n_params)
        sizes, inside = [], []
        for name in ("factor_sweep", "draw_sweep"):

            def spy(x, sweep=getattr(model, name)):
                if not inside:
                    sizes.append(len(x) // group_size)
                inside.append(x)
                try:
                    return sweep(x)
                finally:
                    inside.pop()

            monkeypatch.setattr(model, name, spy)
        return sizes

    return install
